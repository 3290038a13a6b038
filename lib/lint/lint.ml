(* Driver: walk lib/**, bin/ and bench/, lint every .ml against the AST
   rules, every lib dune file against the architecture spec, run the
   typedtree rules (B1/B2, E2) over the .cmt files of the last build,
   apply waivers globally, and report.

   Waivers are collected from every swept source file and applied to the
   whole finding set at the end — a typed finding (whose diagnostics
   carry the same repo-relative paths the sweep uses) is waivable with
   the same comment syntax as a parsetree one. *)

module D = Diagnostic

type result = {
  findings : D.t list;  (* unwaived — these fail the build *)
  waived : (D.t * Waiver.t) list;
  waivers : Waiver.t list;
  libs : Arch.dune_lib list;
  files_seen : int;
  typed_units : int;  (* compilation units the typed pass saw *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    List.sort String.compare (Array.to_list (Sys.readdir path))
  else []

let partition_waived waivers findings =
  List.partition_map
    (fun d ->
      match List.find_opt (fun w -> Waiver.covers w d) waivers with
      | Some w -> Right (d, w)
      | None -> Left d)
    findings

(* Lint one source string under a (possibly virtual) path: returns
   (unwaived, waived, waivers).  This is the unit the fixture tests use. *)
let lint_file_source ~path source =
  let waivers, w1s = Waiver.scan ~file:path source in
  let unwaived, waived =
    partition_waived waivers (Rules.lint_source ~path source @ w1s)
  in
  (List.sort D.order unwaived, waived, waivers)

(* Typed rules over an explicit unit list: the fixture tests load planted
   .cmt files and run exactly this. *)
let lint_typed_units units =
  Block_rules.check (Callgraph.build units) @ Metric_rules.check units

(* ---------- repo sweep ---------- *)

let lib_dirs ~root =
  List.filter
    (fun dir -> Sys.is_directory (Filename.concat root ("lib/" ^ dir)))
    (list_dir (Filename.concat root "lib"))

(* Every library stanza of every lib/<dir>/dune: the actual architecture
   graph that L1 and [gcs_lint graph] read. *)
let dune_libs ~root =
  List.concat_map
    (fun dir ->
      let dune_file = Printf.sprintf "lib/%s/dune" dir in
      let path = Filename.concat root dune_file in
      if Sys.file_exists path then Arch.parse_dune ~dune_file (read_file path)
      else [])
    (lib_dirs ~root)

(* Every .ml directly under lib/<dir>, bin/ and bench/, as (repo-relative
   path, contents).  The executables get the same source rules; the
   protocol-only ones (D2-D4/E1) do not apply outside lib/<protocol dir>. *)
let sources ~root =
  List.concat_map
    (fun dir ->
      List.filter_map
        (fun entry ->
          if Filename.check_suffix entry ".ml" then
            let path = dir ^ "/" ^ entry in
            Some (path, read_file (Filename.concat root path))
          else None)
        (list_dir (Filename.concat root dir)))
    (List.map (fun d -> "lib/" ^ d) (lib_dirs ~root) @ [ "bin"; "bench" ])

(* Full repo run, rooted at [root] (the directory containing lib/).  The
   typed rules need a prior [dune build @all]; without .cmt files they
   report T0 rather than pass silently. *)
let run ~root () =
  let sources = sources ~root in
  let libs = dune_libs ~root in
  let scans =
    List.map (fun (path, src) -> Waiver.scan ~file:path src) sources
  in
  let waivers = List.concat_map fst scans in
  let units = Typed_loader.load ~root in
  let typed =
    if units = [] then
      [
        D.v ~file:"." ~line:1 ~rule:"T0"
          ~suggestion:"run `dune build @all` before linting"
          "typed pass found no .cmt files; B1/B2/E2 did not run";
      ]
    else lint_typed_units units
  in
  let design_path = Filename.concat root "DESIGN.md" in
  let design =
    if Sys.file_exists design_path then
      Metric_rules.check_design ~design_path:"DESIGN.md" (read_file design_path)
    else []
  in
  let findings =
    List.concat_map Arch.check_declared libs
    @ List.concat_map (fun (path, src) -> Rules.lint_source ~path src) sources
    @ List.concat_map snd scans @ typed @ design
  in
  let unwaived, waived = partition_waived waivers findings in
  {
    findings = List.sort D.order unwaived;
    waived = List.sort (fun (a, _) (b, _) -> D.order a b) waived;
    waivers;
    libs;
    files_seen = List.length sources;
    typed_units = List.length units;
  }

let pp_report ppf r =
  if r.findings <> [] then begin
    Format.fprintf ppf "%a" D.pp_list r.findings;
    Format.fprintf ppf "@.%d finding(s) in %d file(s).@."
      (List.length r.findings) r.files_seen
  end
  else
    Format.fprintf ppf
      "gcs_lint: clean — %d file(s), %d librar%s, %d typed unit(s) checked.@."
      r.files_seen (List.length r.libs)
      (if List.length r.libs = 1 then "y" else "ies")
      r.typed_units;
  if r.waived <> [] then begin
    Format.fprintf ppf "%d waived finding(s):@." (List.length r.waived);
    List.iter
      (fun (d, w) ->
        Format.fprintf ppf "  %s:%d [%s] — waived: %s@." d.D.file d.D.line
          d.D.rule w.Waiver.reason)
      r.waived
  end
