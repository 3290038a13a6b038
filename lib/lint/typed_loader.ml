(* The typedtree access layer: find and read the .cmt files dune wrote
   for lib/, bin/ and bench/, and give the typed rules (callgraph, B1/B2,
   E2) a uniform view of each compilation unit.

   Where the parsetree rules see syntax, a .cmt holds the *typed* tree:
   every identifier carries its resolved [Path.t], so `M.incr`,
   `Metrics.incr` and `Gc_obs.Metrics.incr` all name the same function
   no matter how the file aliased its modules.  That resolution is what
   makes the cross-module rules sound.

   Layout facts this module encodes:
   - libraries:    <dir>/.<libname>.objs/byte/<Lib>__<Module>.cmt
   - executables:  <dir>/.<exe>.eobjs/byte/Dune__exe__<Module>.cmt
   - wrapper/alias units compile from generated .ml-gen sources; they
     carry no user code and are skipped.
   - depending on where the driver runs, the build tree is either
     <root>/_build/default (repo checkout) or <root> itself (tests run
     inside _build/default already).

   .cmt files are a build artifact: the typed pass lints what was last
   built.  Run `dune build @all` first; the driver reports rule T0 when
   it finds no units at all rather than silently passing. *)

type unit_info = {
  unit_name : string;  (* compilation unit, e.g. "Gc_runtime_unix__Fconn" *)
  canon : string;      (* canonical module prefix, e.g. "Gc_runtime_unix.Fconn" *)
  source : string;     (* repo-relative source path, e.g. "lib/runtime_unix/fconn.ml" *)
  structure : Typedtree.structure;
}

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    List.sort String.compare (Array.to_list (Sys.readdir path))
  else []

(* "Gc_runtime_unix__Fconn" -> "Gc_runtime_unix.Fconn";
   "Dune__exe__Gcs_server" -> "Gcs_server".  Splitting happens on the
   literal "__" separator dune uses, never on single underscores. *)
let canon_of_unit_name name =
  let parts =
    let n = String.length name in
    let rec go start i acc =
      if i + 1 >= n then List.rev (String.sub name start (n - start) :: acc)
      else if name.[i] = '_' && name.[i + 1] = '_' then
        go (i + 2) (i + 2) (String.sub name start (i - start) :: acc)
      else go start (i + 1) acc
    in
    go 0 0 []
  in
  match parts with
  | "Dune" :: "exe" :: rest -> String.concat "." rest
  | parts -> String.concat "." parts

let read_cmt path =
  match Cmt_format.read_cmt path with
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some source
        when Filename.check_suffix source ".ml" ->
          let unit_name = cmt.Cmt_format.cmt_modname in
          Some
            {
              unit_name;
              canon = canon_of_unit_name unit_name;
              source;
              structure;
            }
      | _ -> None (* interface, wrapper (.ml-gen), or partial cmt *))
  | exception _ -> None (* unreadable or stale-format cmt: skip *)

(* All <dir>/.<name>.objs/byte and .<name>.eobjs/byte dirs below [dir]. *)
let rec find_byte_dirs dir acc =
  List.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then
        let is_objs =
          String.length entry > 1
          && entry.[0] = '.'
          && (Filename.check_suffix entry ".objs"
             || Filename.check_suffix entry ".eobjs")
        in
        if is_objs then
          let byte = Filename.concat path "byte" in
          if Sys.file_exists byte && Sys.is_directory byte then byte :: acc
          else acc
        else find_byte_dirs path acc
      else acc)
    acc (list_dir dir)

let subtrees = [ "lib"; "bin"; "bench" ]

(* Load every unit under [root]'s build tree, newest definition of each
   unit name winning never being needed: unit names are globally unique,
   so the first sighting is kept. *)
let load ~root =
  let build_root =
    let candidate = Filename.concat root "_build/default" in
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else root
  in
  let seen = Hashtbl.create 64 in
  let units = ref [] in
  List.iter
    (fun sub ->
      let dir = Filename.concat build_root sub in
      if Sys.file_exists dir && Sys.is_directory dir then
        List.iter
          (fun byte_dir ->
            List.iter
              (fun entry ->
                if Filename.check_suffix entry ".cmt" then
                  match read_cmt (Filename.concat byte_dir entry) with
                  | Some u when not (Hashtbl.mem seen u.unit_name) ->
                      Hashtbl.replace seen u.unit_name ();
                      units := u :: !units
                  | _ -> ())
              (list_dir byte_dir))
          (List.sort String.compare (find_byte_dirs dir [])))
    subtrees;
  List.sort (fun a b -> String.compare a.source b.source) !units

(* Load specific .cmt files (the fixture tests point straight at the
   planted library's objs directory). *)
let load_files paths = List.filter_map read_cmt paths

(* ---------- typed-tree helpers shared by the rule modules ---------- *)

(* Per-unit name resolution: expand local module aliases so every path
   prints in its canonical dotted form. *)
type resolver = {
  unit_canon : string;
  aliases : (string, string) Hashtbl.t;  (* local module name -> canonical prefix *)
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* Canonical dotted name of a path, expanding the head through the
   unit's alias table ("W.u8" -> "Gc_net.Wire.u8").  Bare local value
   names come back unqualified; [resolve_local] below maps them onto
   the unit's own defs. *)
let canon_of_path r p =
  let s = Path.name p in
  match String.index_opt s '.' with
  | None -> ( match Hashtbl.find_opt r.aliases s with Some c -> c | None -> s)
  | Some i -> (
      let head = String.sub s 0 i in
      let rest = String.sub s i (String.length s - i) in
      match Hashtbl.find_opt r.aliases head with
      | Some c -> c ^ rest
      | None -> s)

(* Record `module X = <path>` aliases and `module X = struct .. end`
   definitions, including nested ones, into the resolver.  Runs as a
   cheap pre-pass over the structure. *)
let build_resolver ~canon (structure : Typedtree.structure) =
  let r = { unit_canon = canon; aliases = Hashtbl.create 16 } in
  let rec scan_module prefix (me : Typedtree.module_expr) name =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) ->
        Hashtbl.replace r.aliases name (canon_of_path r p)
    | Typedtree.Tmod_constraint (me', _, _, _) -> scan_module prefix me' name
    | Typedtree.Tmod_structure str ->
        let full = prefix ^ "." ^ name in
        Hashtbl.replace r.aliases name full;
        scan_structure full str
    | _ -> ()
  and scan_structure prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_module mb -> (
            match mb.Typedtree.mb_id with
            | Some id -> scan_module prefix mb.Typedtree.mb_expr (Ident.name id)
            | None -> ())
        | Typedtree.Tstr_recmodule mbs ->
            List.iter
              (fun (mb : Typedtree.module_binding) ->
                match mb.Typedtree.mb_id with
                | Some id ->
                    scan_module prefix mb.Typedtree.mb_expr (Ident.name id)
                | None -> ())
              mbs
        | _ -> ())
      str.Typedtree.str_items
  in
  scan_structure canon structure;
  (* [let module W = Gc_net.Wire in ...] — the codec-registration idiom —
     binds aliases inside expressions, where no Tstr_module appears. *)
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) ->
        scan_module canon me (Ident.name id)
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.structure it structure;
  r

(* Head identifier of a (possibly partial, possibly pipelined)
   application: [f x y], [f], [Some (f x)] all answer [f]'s path. *)
let rec head_path (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_apply (f, _) -> head_path f
  | Typedtree.Texp_construct (_, _, [ arg ]) -> head_path arg
  | _ -> None

(* All string literals syntactically inside [e], descending through
   if/match/try arms and sequencing — enough to see both branches of
   [if ordered then "a" else "b"]. *)
let string_literals (e : Typedtree.expression) =
  let acc = ref [] in
  let rec go (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) ->
        acc := (s, e.Typedtree.exp_loc) :: !acc
    | Typedtree.Texp_ifthenelse (_, a, b) ->
        go a;
        Option.iter go b
    | Typedtree.Texp_match (_, cases, _) ->
        List.iter (fun (c : _ Typedtree.case) -> go c.Typedtree.c_rhs) cases
    | Typedtree.Texp_try (body, cases) ->
        go body;
        List.iter (fun (c : _ Typedtree.case) -> go c.Typedtree.c_rhs) cases
    | Typedtree.Texp_sequence (_, b) -> go b
    | Typedtree.Texp_let (_, _, b) -> go b
    | _ -> ()
  in
  go e;
  List.rev !acc
