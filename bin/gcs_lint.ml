(* gcs_lint — determinism-and-layering static analysis for the GCS repo.

     gcs_lint check [--root DIR]                   lint lib/** bin/ bench/,
                                                   exit 1 on findings
     gcs_lint graph [--root DIR] [--dot FILE]      dump the architecture DAG
     gcs_lint callgraph [--root DIR] [--dot FILE]  dump the event-loop
                                                   reachability graph

   Rules and the architecture spec live in lib/lint (Gc_lint.Catalog);
   DESIGN.md sections 11 and 16 document them.  The typed rules (B1/B2,
   E2) and the callgraph read the .cmt files of the last build: run
   `dune build @all` first. *)

open Cmdliner

let root_arg =
  let doc = "Repository root (the directory containing lib/)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let rules_flag =
  let doc = "Print the rule catalog and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let check_cmd =
  let run root rules =
    if rules then begin
      List.iter
        (fun r -> Printf.printf "%-3s %s\n" r (Gc_lint.Catalog.rule_summary r))
        Gc_lint.Catalog.rule_ids;
      0
    end
    else begin
      let r = Gc_lint.Lint.run ~root () in
      Format.printf "%a@?" Gc_lint.Lint.pp_report r;
      if r.Gc_lint.Lint.findings = [] then 0 else 1
    end
  in
  let doc =
    "Lint lib/**, bin/ and bench/ for determinism, event discipline, \
     layering, loop reachability and the metric catalog."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const run $ root_arg $ rules_flag)

let dot_arg =
  let doc = "Write the graphviz dot output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let emit_dot ~dot render =
  match dot with
  | None -> print_string (render ())
  | Some file ->
      let oc = open_out file in
      output_string oc (render ());
      close_out oc;
      Printf.printf "wrote %s\n" file

let graph_cmd =
  let run root dot =
    let libs = Gc_lint.Lint.dune_libs ~root in
    emit_dot ~dot (fun () ->
        let buf = Buffer.create 1024 in
        let ppf = Format.formatter_of_buffer buf in
        Gc_lint.Arch.to_dot ppf libs;
        Format.pp_print_flush ppf ();
        Buffer.contents buf);
    0
  in
  let doc = "Dump the library dependency DAG (graphviz dot)." in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const run $ root_arg $ dot_arg)

let callgraph_cmd =
  let run root dot =
    let units = Gc_lint.Typed_loader.load ~root in
    if units = [] then begin
      prerr_endline
        "gcs_lint: no .cmt files found — run `dune build @all` first";
      1
    end
    else begin
      let g = Gc_lint.Callgraph.build units in
      emit_dot ~dot (fun () -> Gc_lint.Callgraph.to_dot g);
      0
    end
  in
  let doc =
    "Dump the event-loop reachability graph (graphviz dot): callback roots \
     and everything they can call."
  in
  Cmd.v (Cmd.info "callgraph" ~doc) Term.(const run $ root_arg $ dot_arg)

let () =
  let doc = "static analysis: determinism, event discipline, layering" in
  let info = Cmd.info "gcs_lint" ~version:"%%VERSION%%" ~doc in
  exit (Cmd.eval' (Cmd.group info [ check_cmd; graph_cmd; callgraph_cmd ]))
