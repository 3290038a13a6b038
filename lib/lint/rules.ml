(* AST rules, driven by compiler-libs' [Ast_iterator] over the parsetree.

   D1  no Random.* / Unix.* / Sys.time outside lib/sim/rng.ml (all libs):
       every random draw must flow through the seeded, splittable Rng so a
       replay of the same seed is bit-for-bit identical.
   D2  no physical equality ==/!= in protocol modules: message identity
       must be structural (ids), never address-based.
   D3  no unordered Hashtbl.iter/fold in protocol modules, unless the fold
       result is piped straight into a List sort, or the traversal goes
       through Gc_sim.Sorted.
   D4  no bare polymorphic [compare] (or (=)/(<>) as a function value) at
       sort/comparator positions in protocol modules: comparators on
       protocol state must be typed and explicit.
   E1  every Process.event call uses a component registered in
       Catalog.components, and its ~msg (when present) is a literal or
       Printf.sprintf whose format starts with a registered prefix for
       that component. *)

module D = Diagnostic

let lid_str lid = String.concat "." (Longident.flatten lid)

let strip_stdlib s =
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

let sort_family =
  [
    "List.sort"; "List.stable_sort"; "List.sort_uniq"; "List.fast_sort";
    "List.merge"; "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
  ]

let unordered_traversals =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let banned_ambient = [ "Sys.time"; "Sys.cpu_time" ]
let banned_roots = [ "Random"; "Unix" ]

type acc = {
  file : string;
  protocol : bool;
  rng_exempt : bool;
  mutable findings : D.t list;
  (* loc offsets of Hashtbl.fold applications sanctioned by a sort *)
  sanctioned : (int, unit) Hashtbl.t;
}

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let add acc (loc : Location.t) ~rule ~suggestion message =
  let line, col = line_col loc in
  acc.findings <-
    D.v ~file:acc.file ~line ~col ~rule ~suggestion message :: acc.findings

let head_ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (lid_str txt))
  | _ -> None

(* Head of an application or partial application: [List.sort cmp] and
   [List.sort] both answer "List.sort". *)
let rec app_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> app_head f
  | _ -> head_ident e

let is_fold_app (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> head_ident f = Some "Hashtbl.fold"
  | _ -> false

let sanction acc (e : Parsetree.expression) =
  if is_fold_app e then
    Hashtbl.replace acc.sanctioned e.pexp_loc.loc_start.pos_cnum ()

let const_string (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* The ~msg argument as a statically known string: either a literal or the
   format literal of Printf.sprintf / Format.sprintf. *)
let msg_literal (e : Parsetree.expression) =
  match const_string e with
  | Some s -> Some s
  | None -> (
      match e.pexp_desc with
      | Pexp_apply (f, (Asttypes.Nolabel, fmt) :: _)
        when head_ident f = Some "Printf.sprintf"
             || head_ident f = Some "Format.sprintf" ->
          const_string fmt
      | _ -> None)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_process_event h =
  h = "Process.event"
  || starts_with ~prefix:"Gc_kernel.Process." h
     && h = "Gc_kernel.Process.event"

(* ---------- per-node rule logic ---------- *)

let check_ident acc (loc : Location.t) lid =
  let s = strip_stdlib (lid_str lid) in
  let root = match Longident.flatten lid with r :: _ -> r | [] -> "" in
  if
    (not acc.rng_exempt)
    && (List.mem root banned_roots || List.mem s banned_ambient)
  then
    add acc loc ~rule:"D1"
      ~suggestion:
        "draw from the process Rng (Gc_sim.Rng, seeded and splittable) or \
         take the value as a parameter"
      (Printf.sprintf "ambient nondeterminism: %s" s);
  if acc.protocol && (s = "==" || s = "!=") then
    add acc loc ~rule:"D2"
      ~suggestion:
        "compare message ids structurally (=, or a typed comparator); \
         physical equality depends on allocation history"
      (Printf.sprintf "physical equality (%s) in protocol code" s)

let check_event_args acc (loc : Location.t) args =
  let labelled name =
    List.find_map
      (fun (l, e) ->
        match l with Asttypes.Labelled n when n = name -> Some e | _ -> None)
      args
  in
  match labelled "component" with
  | None -> ()
  | Some comp_e -> (
      match const_string comp_e with
      | None ->
          add acc comp_e.Parsetree.pexp_loc ~rule:"E1"
            ~suggestion:"pass the component as a string literal so the \
                         catalog check can see it"
            "Process.event ~component is not a string literal"
      | Some comp -> (
          match Catalog.component_prefixes comp with
          | None ->
              add acc comp_e.Parsetree.pexp_loc ~rule:"E1"
                ~suggestion:
                  "register the component and its msg-id prefixes in \
                   Gc_lint.Catalog.components"
                (Printf.sprintf "unregistered trace component %S" comp)
          | Some prefixes -> (
              match labelled "msg" with
              | None -> ()
              | Some msg_e -> (
                  match msg_literal msg_e with
                  | None ->
                      add acc msg_e.Parsetree.pexp_loc ~rule:"E1"
                        ~suggestion:
                          "build the id with Printf.sprintf and a literal \
                           format starting with a registered prefix"
                        "Process.event ~msg is not statically checkable"
                  | Some fmt ->
                      if
                        not
                          (List.exists
                             (fun p -> starts_with ~prefix:p fmt)
                             prefixes)
                      then
                        add acc msg_e.Parsetree.pexp_loc ~rule:"E1"
                          ~suggestion:
                            (if prefixes = [] then
                               Printf.sprintf
                                 "component %S has no registered msg-id \
                                  prefix; register one in \
                                  Gc_lint.Catalog.components"
                                 comp
                             else
                               Printf.sprintf
                                 "use one of the registered prefixes for \
                                  %S: %s"
                                 comp
                                 (String.concat ", " prefixes))
                          (Printf.sprintf
                             "msg id %S does not start with a registered \
                              prefix of component %S"
                             fmt comp)))))
  |> fun () -> ignore loc

let check_apply acc (e : Parsetree.expression) f args =
  match head_ident f with
  | None -> ()
  | Some h ->
      (* D3: unordered traversal, unless sanctioned by a surrounding sort. *)
      if acc.protocol && List.mem h unordered_traversals then begin
        if not (Hashtbl.mem acc.sanctioned e.Parsetree.pexp_loc.loc_start.pos_cnum)
        then
          add acc f.Parsetree.pexp_loc ~rule:"D3"
            ~suggestion:
              "traverse with Gc_sim.Sorted.{iter,fold,bindings,keys,values} \
               (key-sorted), or pipe the fold result straight into a List \
               sort"
            (Printf.sprintf "unordered %s over protocol state" h)
      end;
      (* Sorts sanction a directly nested Hashtbl.fold ... *)
      if List.mem h sort_family then begin
        List.iter (fun (_, a) -> sanction acc a) args;
        (* ... and D4: their comparator must not be bare polymorphic. *)
        if acc.protocol then
          match
            List.find_map
              (fun (l, a) ->
                match (l, head_ident a) with
                | Asttypes.Nolabel, Some ("compare" | "Poly.compare") ->
                    Some a
                | _ -> None)
              args
          with
          | Some a ->
              add acc a.Parsetree.pexp_loc ~rule:"D4"
                ~suggestion:
                  "pass a typed comparator (Int.compare, String.compare, or \
                   a named by_<field> function)"
                (Printf.sprintf "bare polymorphic compare passed to %s" h)
          | None -> ()
      end;
      (* Pipes: [Hashtbl.fold ... |> List.sort cmp] and
         [List.sort cmp @@ Hashtbl.fold ...]. *)
      (match (h, args) with
      | "|>", [ (_, lhs); (_, rhs) ] -> (
          match app_head rhs with
          | Some h' when List.mem h' sort_family -> sanction acc lhs
          | _ -> ())
      | "@@", [ (_, lhs); (_, rhs) ] -> (
          match app_head lhs with
          | Some h' when List.mem h' sort_family -> sanction acc rhs
          | _ -> ())
      | _ -> ());
      (* D4, general form: a bare polymorphic compare or (=)/(<>) passed as
         a function value to anything. *)
      if acc.protocol && not (List.mem h sort_family) then
        List.iter
          (fun (_, a) ->
            match head_ident a with
            | Some ("compare" | "Poly.compare") ->
                add acc a.Parsetree.pexp_loc ~rule:"D4"
                  ~suggestion:
                    "pass a typed comparator (Int.compare, String.compare, \
                     or a named by_<field> function)"
                  (Printf.sprintf
                     "bare polymorphic compare passed to %s" h)
            | Some ("=" | "<>") when h <> "|>" && h <> "@@" ->
                add acc a.Parsetree.pexp_loc ~rule:"D4"
                  ~suggestion:"pass a typed equality function"
                  (Printf.sprintf
                     "bare polymorphic equality passed to %s" h)
            | _ -> ())
          args;
      (* E1: event discipline. *)
      if acc.protocol && is_process_event h then
        check_event_args acc e.Parsetree.pexp_loc args

(* ---------- iterator ---------- *)

let make_iterator acc =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident acc loc txt
    | Pexp_apply (f, args) -> check_apply acc e f args
    | _ -> ());
    default_iterator.expr it e
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> (
        match Longident.flatten txt with
        | root :: _ when List.mem root banned_roots && not acc.rng_exempt ->
            add acc loc ~rule:"D1"
              ~suggestion:"alias deterministic modules only"
              (Printf.sprintf "ambient nondeterminism: module %s" root)
        | _ -> ())
    | _ -> ());
    default_iterator.module_expr it m
  in
  { default_iterator with expr; module_expr }

let lint_structure ~file ~protocol ~rng_exempt structure =
  let acc =
    {
      file;
      protocol;
      rng_exempt;
      findings = [];
      sanctioned = Hashtbl.create 16;
    }
  in
  let it = make_iterator acc in
  it.Ast_iterator.structure it structure;
  List.sort D.order acc.findings

let parse_impl ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.implementation lexbuf

(* Parse + lint a source string under its (possibly virtual) path. *)
let lint_source ~path source =
  let protocol =
    match Catalog.dir_of_path path with
    | Some d -> Catalog.is_protocol_dir d
    | None -> false
  in
  let rng_exempt = Catalog.rng_exempt path in
  match parse_impl ~file:path source with
  | structure -> lint_structure ~file:path ~protocol ~rng_exempt structure
  | exception exn ->
      let loc, msg =
        match exn with
        | Syntaxerr.Error err ->
            ( Syntaxerr.location_of_error err,
              "syntax error" )
        | _ -> (Location.in_file path, Printexc.to_string exn)
      in
      let line, col = line_col loc in
      [
        D.v ~file:path ~line ~col ~rule:"P0"
          ~suggestion:"fix the syntax error; the lint pass needs a parsable \
                       tree"
          msg;
      ]
