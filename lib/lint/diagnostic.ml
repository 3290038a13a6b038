(* A typed lint finding: where, which rule, what to do about it. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;  (* an id in Catalog.rule_ids: "D1".."D4", "E1", "B1", ... *)
  message : string;
  suggestion : string;
}

let v ~file ~line ?(col = 0) ~rule ~suggestion message =
  { file; line; col; rule; message; suggestion }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare a.rule b.rule

let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message;
  if d.suggestion <> "" then Format.fprintf ppf "@,    fix: %s" d.suggestion

let pp_list ppf ds =
  Format.pp_open_vbox ppf 0;
  List.iter (fun d -> Format.fprintf ppf "%a@," pp d) ds;
  Format.pp_close_box ppf ()
