(* The lint pass itself, exercised against known-bad fixtures: every rule
   must fire at exactly its planted lines, the sanctioned/clean shapes must
   stay silent, waivers must silence only what they name (and malformed
   waivers must surface as W1), and the architecture checker must reject a
   deliberately non-conforming dune stanza.  Finally, the real repo must
   lint clean — the zero-findings baseline is a regression test. *)

module Lint = Gc_lint.Lint
module Arch = Gc_lint.Arch
module Waiver = Gc_lint.Waiver
module D = Gc_lint.Diagnostic

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fixtures are linted under a virtual lib/rchannel/ path so the
   protocol-only rules (D2-D4, E1) apply. *)
let lint_fixture name =
  let source = read_file (Filename.concat "lint_fixtures" name) in
  Lint.lint_file_source ~path:("lib/rchannel/" ^ name) source

let rule_lines (ds : D.t list) =
  List.map (fun d -> (d.D.rule, d.D.line)) ds

let pairs = Alcotest.(list (pair string int))

let check_findings name expected =
  let unwaived, _, _ = lint_fixture name in
  Alcotest.check pairs name expected (rule_lines unwaived)

let test_d1 () =
  check_findings "fixture_d1.ml" [ ("D1", 6); ("D1", 7); ("D1", 8) ]

let test_d2 () = check_findings "fixture_d2.ml" [ ("D2", 6); ("D2", 7) ]
let test_d3 () = check_findings "fixture_d3.ml" [ ("D3", 8); ("D3", 11) ]

let test_d4 () =
  check_findings "fixture_d4.ml" [ ("D4", 5); ("D4", 7); ("D4", 9) ]

let test_e1 () =
  check_findings "fixture_e1.ml" [ ("E1", 9); ("E1", 12); ("E1", 15) ]

let test_clean () = check_findings "fixture_clean.ml" []

(* Outside a protocol directory the protocol-only rules stay quiet, but D1
   still applies everywhere. *)
let test_non_protocol () =
  let d2 = read_file "lint_fixtures/fixture_d2.ml" in
  let unwaived, _, _ = Lint.lint_file_source ~path:"lib/obs/fixture.ml" d2 in
  Alcotest.check pairs "D2 is protocol-only" [] (rule_lines unwaived);
  let d1 = read_file "lint_fixtures/fixture_d1.ml" in
  let unwaived, _, _ = Lint.lint_file_source ~path:"lib/obs/fixture.ml" d1 in
  Alcotest.check pairs "D1 applies everywhere"
    [ ("D1", 6); ("D1", 7); ("D1", 8) ]
    (rule_lines unwaived);
  (* ... except in the one module allowed to own randomness. *)
  let unwaived, _, _ = Lint.lint_file_source ~path:"lib/sim/rng.ml" d1 in
  Alcotest.check pairs "lib/sim/rng.ml is D1-exempt" [] (rule_lines unwaived)

(* D1's exemptions, one path of each kind: the randomness owner, a
   real-time directory, a real-time file in lib/ and one in bin/.  The
   server's replica core and store run in the simulator too, so D1 covers
   them although they share lib/server with the exempt TCP front door. *)
let test_rng_exempt () =
  List.iter
    (fun (path, exempt) ->
      Alcotest.(check bool) path exempt (Gc_lint.Catalog.rng_exempt path))
    [
      ("lib/sim/rng.ml", true);
      ("lib/runtime_unix/evloop.ml", true);
      ("lib/server/server.ml", true);
      ("bin/gcs_server.ml", true);
      ("lib/server/replica.ml", false);
      ("lib/server/kv.ml", false);
      ("lib/sim/engine.ml", false);
      ("bin/gcs_demo.ml", false);
    ]

let test_waivers () =
  let unwaived, waived, waivers = lint_fixture "fixture_waiver.ml" in
  Alcotest.check pairs "unwaived"
    [ ("D3", 12); ("W1", 14); ("D3", 15); ("D2", 18) ]
    (rule_lines unwaived);
  Alcotest.check pairs "waived"
    [ ("D3", 9) ]
    (rule_lines (List.map fst waived));
  Alcotest.(check int) "waiver count (valid ones)" 2 (List.length waivers);
  match List.find_opt (fun w -> List.mem "D3" w.Waiver.rules) waivers with
  | Some w ->
      Alcotest.(check string)
        "reason survives" "commutative sum, order cannot matter"
        w.Waiver.reason
  | None -> Alcotest.fail "D3 waiver not parsed"

let test_waiver_parse () =
  let parse text = Waiver.parse ~file:"f.ml" ~start_line:1 ~end_line:1 text in
  (match parse " gcs-lint: allow D3, D4 \xe2\x80\x94 because reasons " with
  | Ok (Some w) ->
      Alcotest.(check (list string)) "rules" [ "D3"; "D4" ] w.Waiver.rules;
      Alcotest.(check string) "reason" "because reasons" w.Waiver.reason
  | _ -> Alcotest.fail "em-dash waiver should parse");
  (match parse "gcs-lint: allow D9 -- no such rule" with
  | Error d -> Alcotest.(check string) "W1" "W1" d.D.rule
  | _ -> Alcotest.fail "unknown rule must be W1");
  (match parse "gcs-lint: allow D3" with
  | Error d -> Alcotest.(check string) "W1" "W1" d.D.rule
  | _ -> Alcotest.fail "missing reason must be W1");
  match parse "an ordinary comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "ordinary comments are not waivers"

(* Waiver grammar edge cases, through the full file-lint path: comments
   spanning several lines, CRLF sources, a waiver ending the file, and an
   unknown rule surfacing as W1 from a scan (not just from [parse]). *)
let test_waiver_multiline () =
  let src =
    "let f h n =\n\
    \  (* gcs-lint: allow D3 —\n\
    \     commutative count over the\n\
    \     whole table *)\n\
    \  Hashtbl.iter (fun _ _ -> incr n) h\n"
  in
  let unwaived, waived, waivers =
    Lint.lint_file_source ~path:"lib/rchannel/x.ml" src
  in
  Alcotest.check pairs "nothing unwaived" [] (rule_lines unwaived);
  Alcotest.check pairs "D3 on the line after the comment is waived"
    [ ("D3", 5) ]
    (rule_lines (List.map fst waived));
  match waivers with
  | [ w ] ->
      Alcotest.(check string) "line breaks collapse in the reason"
        "commutative count over the whole table" w.Waiver.reason
  | ws -> Alcotest.failf "expected 1 waiver, got %d" (List.length ws)

let test_waiver_crlf () =
  let src =
    String.concat "\r\n"
      [
        "let f h n =";
        "  (* gcs-lint: allow D3 — crlf sources must parse too *)";
        "  Hashtbl.iter (fun _ _ -> incr n) h";
        "";
      ]
  in
  let unwaived, waived, _ =
    Lint.lint_file_source ~path:"lib/rchannel/x.ml" src
  in
  Alcotest.check pairs "nothing unwaived" [] (rule_lines unwaived);
  Alcotest.check pairs "D3 waived under CRLF" [ ("D3", 3) ]
    (rule_lines (List.map fst waived))

let test_waiver_last_line () =
  (* same-line waiver, terminal comment, no trailing newline *)
  let src =
    "let g h = Hashtbl.iter ignore h (* gcs-lint: allow D3 — same line *)"
  in
  let unwaived, waived, _ =
    Lint.lint_file_source ~path:"lib/rchannel/x.ml" src
  in
  Alcotest.check pairs "nothing unwaived" [] (rule_lines unwaived);
  Alcotest.check pairs "same-line finding waived" [ ("D3", 1) ]
    (rule_lines (List.map fst waived))

let test_waiver_unknown_rule_scan () =
  let src = "(* gcs-lint: allow Z9 -- no such rule *)\nlet x = 1\n" in
  let unwaived, waived, waivers =
    Lint.lint_file_source ~path:"lib/rchannel/x.ml" src
  in
  Alcotest.check pairs "malformed waiver is a W1 finding" [ ("W1", 1) ]
    (rule_lines unwaived);
  Alcotest.(check int) "it waives nothing" 0 (List.length waived);
  Alcotest.(check int) "and is not a waiver" 0 (List.length waivers)

let test_arch_bad_dune () =
  let source = read_file "lint_fixtures/bad_dune.sexp" in
  let libs = Arch.parse_dune ~dune_file:"lib/consensus/dune" source in
  Alcotest.(check int) "two stanzas parsed" 2 (List.length libs);
  let findings = List.concat_map Arch.check_declared libs in
  let rules = List.map (fun d -> d.D.rule) findings in
  Alcotest.(check (list string)) "all L1" [ "L1"; "L1"; "L1" ] rules;
  let messages = String.concat "\n" (List.map (fun d -> d.D.message) findings) in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length messages
      && (String.sub messages i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "legacy edge called out" true
    (has "competing stack gc_totem");
  Alcotest.(check bool) "foreign external rejected" true (has "lwt");
  Alcotest.(check bool) "unknown library rejected" true (has "gc_mystery")

(* ---------- typed rules (B1/B2, E2) against planted fixtures ----------

   The lint_fixture_typed library under lint_fixtures/typed/ compiles
   known-bad shapes (it is linked but never run); each test loads just the
   .cmt files it needs and asserts the planted findings — and only those —
   fire. *)

module Typed = Gc_lint.Typed_loader

let typed_units names =
  let dir = "lint_fixtures/typed/.lint_fixture_typed.objs/byte" in
  let units =
    Typed.load_files
      (List.map
         (fun n -> Filename.concat dir ("lint_fixture_typed__" ^ n ^ ".cmt"))
         names)
  in
  Alcotest.(check int) "fixture cmts load" (List.length names)
    (List.length units);
  units

let typed_findings ~rule names =
  List.filter
    (fun d -> d.D.rule = rule)
    (Lint.lint_typed_units (typed_units names))

let test_typed_b1 () =
  match typed_findings ~rule:"B1" [ "Fixture_b1" ] with
  | [ d ] ->
      Alcotest.(check int) "flagged at the sleeping call" 7 d.D.line;
      let contains needle hay =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "chain names the blocker" true
        (contains "Unix.sleep" d.D.message)
  | ds -> Alcotest.failf "expected exactly 1 B1, got %d" (List.length ds)

let test_typed_b1_defer () =
  Alcotest.check pairs "blocking call reached through Evloop.defer"
    [ ("B1", 7) ]
    (rule_lines (typed_findings ~rule:"B1" [ "Fixture_b1_defer" ]))

let test_typed_b2 () =
  match typed_findings ~rule:"B2" [ "Fixture_b2" ] with
  | [ d ] ->
      Alcotest.(check int) "the unprotected raise, not the try-caught one" 8
        d.D.line
  | ds -> Alcotest.failf "expected exactly 1 B2, got %d" (List.length ds)

let test_typed_e2 () =
  Alcotest.check pairs "unknown name and kind mismatch"
    [ ("E2", 8); ("E2", 9) ]
    (rule_lines (typed_findings ~rule:"E2" [ "Fixture_e2" ]))

(* The shipped repo lints clean: the zero-findings baseline is itself a
   regression test.  (The test binary runs in _build/default/test, so the
   repo root — with lib/ under it — is one level up.) *)
let test_repo_clean () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let r = Lint.run ~root:".." () in
    Alcotest.(check bool) "files linted > 40" true (r.Lint.files_seen > 40);
    Alcotest.check pairs "repo is finding-free" []
      (rule_lines r.Lint.findings);
    List.iter
      (fun (_, w) ->
        Alcotest.(check bool) "every waiver has a reason" true
          (String.length w.Waiver.reason > 0))
      r.Lint.waived
  end

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "D1 ambient nondeterminism" `Quick test_d1;
        Alcotest.test_case "D2 physical equality" `Quick test_d2;
        Alcotest.test_case "D3 unordered traversal" `Quick test_d3;
        Alcotest.test_case "D4 bare polymorphic compare" `Quick test_d4;
        Alcotest.test_case "E1 event discipline" `Quick test_e1;
        Alcotest.test_case "clean fixture stays clean" `Quick test_clean;
        Alcotest.test_case "protocol scoping" `Quick test_non_protocol;
        Alcotest.test_case "D1 exemptions by path" `Quick test_rng_exempt;
        Alcotest.test_case "waivers cover what they name" `Quick test_waivers;
        Alcotest.test_case "waiver grammar" `Quick test_waiver_parse;
        Alcotest.test_case "multiline waiver" `Quick test_waiver_multiline;
        Alcotest.test_case "CRLF waiver" `Quick test_waiver_crlf;
        Alcotest.test_case "last-line waiver" `Quick test_waiver_last_line;
        Alcotest.test_case "unknown rule scans as W1" `Quick
          test_waiver_unknown_rule_scan;
        Alcotest.test_case "L1 bad dune stanza" `Quick test_arch_bad_dune;
        Alcotest.test_case "B1 planted blocking call" `Quick test_typed_b1;
        Alcotest.test_case "B1 through the deferred-work hook" `Quick
          test_typed_b1_defer;
        Alcotest.test_case "B2 planted escaping raise" `Quick test_typed_b2;
        Alcotest.test_case "E2 planted catalog misses" `Quick test_typed_e2;
        Alcotest.test_case "repo lints clean" `Quick test_repo_clean;
      ] );
  ]
