(* Architecture conformance: parse each lib/<dir>/dune stanza, build the
   actual dependency graph, and check it against the declared DAG in
   Catalog.arch.

   L1 fires on the *declared* edges: a dune (libraries ...) entry the spec
   does not allow, or a library the spec does not know.  The *used* edges
   need no rule of their own: dune-project sets
   (implicit_transitive_deps false), so the compiler rejects any module
   whose library is not declared, and declared edges are checked here.
   The AB-GB column reaching gc_traditional / gc_totem gets its own
   pointed message, because that edge is the one the paper's section 4.1
   architecture exists to forbid. *)

module D = Diagnostic

(* ---------- a tiny line-tracking s-expression reader ---------- *)

type sexp = Atom of string * int | List of sexp list * int

let parse_sexps ~file:_ source =
  let n = String.length source in
  let line = ref 1 in
  let pos = ref 0 in
  let peek () = if !pos < n then Some source.[!pos] else None in
  let advance () =
    (if !pos < n && source.[!pos] = '\n' then incr line);
    incr pos
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        let rec to_eol () =
          match peek () with
          | Some '\n' | None -> ()
          | Some _ ->
              advance ();
              to_eol ()
        in
        to_eol ();
        skip_ws ()
    | _ -> ()
  in
  let read_string () =
    let b = Buffer.create 16 in
    advance ();
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some c ->
              Buffer.add_char b c;
              advance ()
          | None -> ());
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      | None -> ()
    in
    go ();
    Buffer.contents b
  in
  let read_atom () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | ';') | None -> ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec read_sexp () =
    skip_ws ();
    let ln = !line in
    match peek () with
    | None -> None
    | Some '(' ->
        advance ();
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              advance ();
              List.rev acc
          | None -> List.rev acc
          | _ -> (
              match read_sexp () with
              | Some s -> items (s :: acc)
              | None -> List.rev acc)
        in
        Some (List (items [], ln))
    | Some ')' ->
        advance ();
        read_sexp ()
    | Some '"' -> Some (Atom (read_string (), ln))
    | Some _ -> Some (Atom (read_atom (), ln))
  in
  let rec top acc =
    match read_sexp () with None -> List.rev acc | Some s -> top (s :: acc)
  in
  top []

(* ---------- dune stanza extraction ---------- *)

type dune_lib = {
  name : string;
  name_line : int;
  libraries : (string * int) list;  (* dep name, line in the dune file *)
  dune_file : string;
}

let field name = function
  | List (Atom (a, _) :: rest, _) when a = name -> Some rest
  | _ -> None

let extract_libs ~dune_file sexps =
  List.filter_map
    (function
      | List (Atom ("library", _) :: fields, ln) ->
          let name, name_line =
            List.find_map
              (fun f ->
                match field "name" f with
                | Some [ Atom (n, l) ] -> Some (n, l)
                | _ -> None)
              fields
            |> Option.value ~default:("?", ln)
          in
          let libraries =
            List.concat_map
              (fun f ->
                match field "libraries" f with
                | Some deps ->
                    List.filter_map
                      (function Atom (d, l) -> Some (d, l) | _ -> None)
                      deps
                | None -> [])
              fields
          in
          Some { name; name_line; libraries; dune_file }
      | _ -> None)
    sexps

let parse_dune ~dune_file source =
  extract_libs ~dune_file (parse_sexps ~file:dune_file source)

(* ---------- L1: declared edges vs the spec ---------- *)

let check_declared (lib : dune_lib) : D.t list =
  match Catalog.find_layer lib.name with
  | None ->
      [
        D.v ~file:lib.dune_file ~line:lib.name_line ~rule:"L1"
          ~suggestion:
            "add the library (with its layer rank and allowed deps) to \
             Gc_lint.Catalog.arch"
          (Printf.sprintf "library %S is not in the declared architecture"
             lib.name);
      ]
  | Some layer ->
      List.filter_map
        (fun (dep, line) ->
          let allowed =
            if Catalog.internal_lib dep then List.mem dep layer.Catalog.deps
            else List.mem dep layer.Catalog.ext
          in
          if allowed then None
          else
            let message, suggestion =
              if
                List.mem lib.name Catalog.abgb_libs
                && List.mem dep Catalog.legacy_libs
              then
                ( Printf.sprintf
                    "AB-GB layer %s depends on competing stack %s" lib.name dep,
                  "the AB-GB column must never reach gc_traditional/gc_totem \
                   (paper section 4.1); route through an interface below \
                   membership instead" )
              else
                ( Printf.sprintf "%s -> %s is not an allowed edge" lib.name dep,
                  "either remove the dependency or, if the architecture \
                   really changed, update Gc_lint.Catalog.arch and DESIGN.md \
                   section 11 together" )
            in
            Some (D.v ~file:lib.dune_file ~line ~rule:"L1" ~suggestion message))
        lib.libraries

(* ---------- dot dump ---------- *)

let to_dot ppf (libs : dune_lib list) =
  let bad (l : dune_lib) dep =
    match Catalog.find_layer l.name with
    | None -> true
    | Some layer ->
        if Catalog.internal_lib dep then not (List.mem dep layer.Catalog.deps)
        else not (List.mem dep layer.Catalog.ext)
  in
  Format.fprintf ppf "digraph gcs_architecture {@.";
  Format.fprintf ppf "  rankdir=BT;@.  node [shape=box, fontname=\"sans\"];@.";
  (* group by declared rank so the layering is visible in the layout *)
  let ranks =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun l ->
           Option.map (fun la -> la.Catalog.rank) (Catalog.find_layer l.name))
         libs)
  in
  List.iter
    (fun r ->
      let same =
        List.filter
          (fun l ->
            match Catalog.find_layer l.name with
            | Some la -> la.Catalog.rank = r
            | None -> false)
          libs
      in
      Format.fprintf ppf "  { rank=same; %s }@."
        (String.concat " "
           (List.map (fun l -> Printf.sprintf "%S;" l.name) same)))
    ranks;
  List.iter
    (fun (l : dune_lib) ->
      List.iter
        (fun (dep, _) ->
          if Catalog.internal_lib dep then
            if bad l dep then
              Format.fprintf ppf "  %S -> %S [color=red, penwidth=2];@." l.name
                dep
            else Format.fprintf ppf "  %S -> %S;@." l.name dep)
        l.libraries)
    libs;
  Format.fprintf ppf "}@."
