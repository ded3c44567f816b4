open Argus_core

(* --- Id --- *)

let test_id_valid () =
  Alcotest.(check string)
    "round-trip" "G1.sub-goal_2"
    (Id.to_string (Id.of_string "G1.sub-goal_2"));
  Alcotest.(check bool) "letter start required" false (Id.is_valid "1abc");
  Alcotest.(check bool) "empty invalid" false (Id.is_valid "");
  Alcotest.(check bool) "space invalid" false (Id.is_valid "a b");
  Alcotest.(check bool) "simple valid" true (Id.is_valid "G1")

let test_id_invalid_raises () =
  Alcotest.check_raises "raises Invalid" (Id.Invalid "!bad") (fun () ->
      ignore (Id.of_string "!bad"))

let test_id_opt () =
  Alcotest.(check bool) "some" true (Id.of_string_opt "ok" <> None);
  Alcotest.(check bool) "none" true (Id.of_string_opt "" = None)

let test_id_gen () =
  let g = Id.Gen.create ~prefix:"G" () in
  let a = Id.Gen.fresh g and b = Id.Gen.fresh g in
  Alcotest.(check string) "first" "G1" (Id.to_string a);
  Alcotest.(check string) "second" "G2" (Id.to_string b);
  let used = Id.Set.of_list [ Id.of_string "G3"; Id.of_string "G4" ] in
  let c = Id.Gen.fresh_avoiding g used in
  Alcotest.(check string) "skips used" "G5" (Id.to_string c)

let test_id_gen_bad_prefix () =
  Alcotest.check_raises "bad prefix" (Id.Invalid "9") (fun () ->
      ignore (Id.Gen.create ~prefix:"9" ()))

let id_gen_distinct =
  QCheck.Test.make ~name:"generator never repeats" ~count:100
    QCheck.(int_bound 50)
    (fun n ->
      let g = Id.Gen.create () in
      let ids = List.init (n + 2) (fun _ -> Id.Gen.fresh g) in
      List.length (Id.Set.elements (Id.Set.of_list ids)) = n + 2)

(* --- Loc --- *)

let test_loc_merge () =
  let p1 = Loc.pos ~line:1 ~col:0 () and p2 = Loc.pos ~line:2 ~col:5 () in
  let p3 = Loc.pos ~line:3 ~col:1 () in
  let a = Loc.make p1 p2 and b = Loc.make p2 p3 in
  let m = Loc.merge a b in
  Alcotest.(check bool) "start" true (m.Loc.start = p1);
  Alcotest.(check bool) "stop" true (m.Loc.stop = p3);
  let m' = Loc.merge b a in
  Alcotest.(check bool) "merge commutes" true (Loc.equal m m')

let test_loc_dummy () =
  Alcotest.(check bool) "dummy is dummy" true (Loc.is_dummy Loc.dummy);
  let real = Loc.point (Loc.pos ~line:1 ~col:0 ()) in
  Alcotest.(check bool) "real is not" false (Loc.is_dummy real)

let test_loc_pp () =
  let l = Loc.point (Loc.pos ~file:"f.arg" ~line:3 ~col:7 ()) in
  Alcotest.(check string) "point" "f.arg:3.7" (Format.asprintf "%a" Loc.pp l);
  let s =
    Loc.make (Loc.pos ~file:"f" ~line:1 ~col:0 ()) (Loc.pos ~file:"f" ~line:2 ~col:4 ())
  in
  Alcotest.(check string) "span" "f:1.0-2.4" (Format.asprintf "%a" Loc.pp s)

(* --- Diagnostic --- *)

let test_diag_ordering () =
  let e = Diagnostic.error ~code:"z" "zz" in
  let w = Diagnostic.warning ~code:"a" "aa" in
  let i = Diagnostic.info ~code:"a" "aa" in
  let sorted = Diagnostic.sort [ i; w; e ] in
  Alcotest.(check (list string))
    "severity-major order" [ "z"; "a"; "a" ]
    (List.map (fun d -> d.Diagnostic.code) sorted)

let test_diag_counts () =
  let ds =
    [
      Diagnostic.error ~code:"x" "m";
      Diagnostic.warning ~code:"y" "m";
      Diagnostic.warning ~code:"y" "m2";
    ]
  in
  Alcotest.(check bool) "has errors" true (Diagnostic.has_errors ds);
  Alcotest.(check int) "warnings" 2 (Diagnostic.count Diagnostic.Warning ds);
  Alcotest.(check bool)
    "no errors" false
    (Diagnostic.has_errors (List.tl ds))

let test_diag_format () =
  let d =
    Diagnostic.errorf ~code:"gsn/x" ~subjects:[ Id.of_string "G1" ]
      "bad node %d" 7
  in
  let s = Format.asprintf "%a" Diagnostic.pp d in
  Alcotest.(check string) "rendering" "error [gsn/x] bad node 7 (G1)" s

(* --- Evidence --- *)

let test_evidence_support () =
  Alcotest.(check bool)
    "proof supports universal" true
    Evidence.(supports_kind Formal_proof Universal);
  Alcotest.(check bool)
    "tests do not support universal" false
    Evidence.(supports_kind Test_results Universal);
  Alcotest.(check bool)
    "expert judgement only existential" false
    Evidence.(supports_kind Expert_judgement Statistical);
  Alcotest.(check bool)
    "field data supports statistical" true
    Evidence.(supports_kind Field_data Statistical)

let test_evidence_strings () =
  List.iter
    (fun k ->
      match Evidence.kind_of_string (Evidence.kind_to_string k) with
      | Some k' when k = k' -> ()
      | _ -> Alcotest.failf "kind round-trip failed")
    Evidence.all_kinds

(* --- Lifecycle --- *)

let test_lifecycle_literacy_range () =
  List.iter
    (fun r ->
      let p = Lifecycle.logic_literacy r in
      if p < 0.0 || p > 1.0 then Alcotest.failf "literacy out of range")
    Lifecycle.all_roles

let test_lifecycle_engineers_most_literate () =
  let eng = Lifecycle.logic_literacy Lifecycle.Design_engineer in
  List.iter
    (fun r ->
      if r <> Lifecycle.Design_engineer && Lifecycle.logic_literacy r > eng
      then Alcotest.failf "a role outranks design engineers in logic literacy")
    Lifecycle.all_roles

let test_lifecycle_each_phase_has_reader () =
  List.iter
    (fun phase ->
      if
        not
          (List.exists
             (fun r -> Lifecycle.reads_in_phase r phase)
             Lifecycle.all_roles)
      then Alcotest.failf "phase with no reader")
    Lifecycle.all_phases

let test_role_round_trip () =
  List.iter
    (fun r ->
      match Lifecycle.role_of_string (Lifecycle.role_to_string r) with
      | Some r' when r = r' -> ()
      | _ -> Alcotest.failf "role round-trip failed")
    Lifecycle.all_roles

(* --- Textutil --- *)

let test_words () =
  Alcotest.(check (list string))
    "splits" [ "The"; "thrust"; "reversers" ]
    (Textutil.words "The thrust-reversers!")

let test_normalise () =
  Alcotest.(check string) "plural" "bank" (Textutil.normalise_word "Banks");
  Alcotest.(check string) "keeps ss" "class" (Textutil.normalise_word "class");
  Alcotest.(check string) "short kept" "is" (Textutil.normalise_word "is")

let test_sentences () =
  Alcotest.(check int) "count" 2
    (List.length (Textutil.sentences "All is well. Honest!"))

let test_syllables () =
  Alcotest.(check int) "mortal" 2 (Textutil.syllables "mortal");
  Alcotest.(check int) "safe (silent e)" 1 (Textutil.syllables "safe");
  Alcotest.(check int) "a" 1 (Textutil.syllables "a")

let test_flesch_ordering () =
  let easy = "The cat sat. The dog ran. All is well." in
  let hard =
    "Notwithstanding comprehensive organisational considerations, \
     internationalisation necessitates interdepartmental coordination \
     methodologies."
  in
  Alcotest.(check bool)
    "easy scores higher" true
    (Textutil.flesch_reading_ease easy > Textutil.flesch_reading_ease hard)

let test_levenshtein () =
  Alcotest.(check int) "identity" 0 (Textutil.levenshtein "abc" "abc");
  Alcotest.(check int) "kitten" 3 (Textutil.levenshtein "kitten" "sitting");
  Alcotest.(check int) "empty" 3 (Textutil.levenshtein "" "abc")

let levenshtein_symmetry =
  QCheck.Test.make ~name:"levenshtein is symmetric" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 12)) (string_of_size (QCheck.Gen.int_bound 12)))
    (fun (a, b) -> Textutil.levenshtein a b = Textutil.levenshtein b a)

let levenshtein_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    QCheck.(triple (string_of_size (QCheck.Gen.int_bound 8)) (string_of_size (QCheck.Gen.int_bound 8)) (string_of_size (QCheck.Gen.int_bound 8)))
    (fun (a, b, c) ->
      Textutil.levenshtein a c
      <= Textutil.levenshtein a b + Textutil.levenshtein b c)

let test_symbolic_detection () =
  Alcotest.(check bool)
    "natural text" false
    (Textutil.contains_symbolic_notation
       "the thrust reversers are inhibited when the aircraft is not on the ground");
  Alcotest.(check bool)
    "arrow formula" true
    (Textutil.contains_symbolic_notation "~on_grnd -> ~threv_en");
  Alcotest.(check bool)
    "applied term" true
    (Textutil.contains_symbolic_notation "wcet(task_1, 250) holds");
  Alcotest.(check bool)
    "ampersand" true
    (Textutil.contains_symbolic_notation "code_reviewed & unit_tests_passed")

(* --- Json --- *)

let test_json_print () =
  let j =
    Json.Obj
      [
        ("name", Json.Str "G1");
        ("n", Json.int 3);
        ("ok", Json.Bool true);
        ("xs", Json.List [ Json.Null; Json.Num 1.5 ]);
      ]
  in
  Alcotest.(check string) "compact"
    {|{"name":"G1","n":3,"ok":true,"xs":[null,1.5]}|}
    (Json.to_string j)

let test_json_parse () =
  (match Json.of_string {| { "a": [1, 2, -3.5e1], "b": "x\ny", "c": {} } |} with
  | Ok j ->
      Alcotest.(check bool) "member a" true
        (Json.member "a" j = Some (Json.List [ Json.Num 1.0; Json.Num 2.0; Json.Num (-35.0) ]));
      Alcotest.(check bool) "escape decoded" true
        (Json.member "b" j = Some (Json.Str "x\ny"))
  | Error e -> Alcotest.fail e);
  (match Json.of_string {|"Aé"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode parse")

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "should not parse: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              if n <= 0 then
                oneof
                  [
                    return Json.Null;
                    map (fun b -> Json.Bool b) bool;
                    map (fun i -> Json.int i) (int_range (-1000) 1000);
                    map (fun s -> Json.Str s)
                      (string_size ~gen:(char_range 'a' 'z') (int_bound 8));
                  ]
              else
                oneof
                  [
                    map (fun xs -> Json.List xs)
                      (list_size (int_bound 4) (self (n / 2)));
                    map
                      (fun kvs ->
                        Json.Obj
                          (List.mapi
                             (fun i (_, v) -> (Printf.sprintf "k%d" i, v))
                             kvs))
                      (list_size (int_bound 4)
                         (pair unit (self (n / 2))));
                  ])
            (min n 6)))
  in
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:300
    (QCheck.make ~print:Json.to_string gen) (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

let json_roundtrip_indented =
  QCheck.Test.make ~name:"indented output parses back" ~count:100
    (QCheck.make
       QCheck.Gen.(
         map
           (fun i -> Json.Obj [ ("x", Json.int i); ("y", Json.List [ Json.Bool true ]) ])
           (int_bound 100)))
    (fun j ->
      match Json.of_string (Json.to_string ~indent:true j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

(* The string decoder copies runs of plain bytes as blocks; these
   strings are dense in the bytes that end a run. *)
let json_string_gen =
  let piece =
    QCheck.Gen.oneof
      [
        QCheck.Gen.oneofl
          [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012"; "\000";
            "\031"; "\127"; "e\204\129"; "\195\169"; "\226\130\172";
            "\240\159\152\128"; "\\u0041"; "\"\\" ];
        QCheck.Gen.map (String.make 1) (QCheck.Gen.char_range '\000' '\031');
        QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
          (QCheck.Gen.int_bound 6);
      ]
  in
  QCheck.Gen.(map (String.concat "") (list_size (int_bound 12) piece))

let json_string_roundtrip =
  QCheck.Test.make ~name:"json string round-trip" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") json_string_gen) (fun s ->
      Json.of_string (Json.to_string (Json.Str s)) = Ok (Json.Str s))

(* [\uXXXX] escapes between plain runs decode to the code points'
   UTF-8 bytes. *)
let json_unicode_escapes =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 8)
        (pair
           (string_size ~gen:(char_range 'a' 'z') (int_bound 3))
           (oneof [ int_range 1 0xD7FF; int_range 0xE000 0xFFFF ])))
  in
  QCheck.Test.make ~name:"json \\u escapes decode to UTF-8" ~count:300
    (QCheck.make gen) (fun parts ->
      let text = Buffer.create 64 and want = Buffer.create 64 in
      Buffer.add_char text '"';
      List.iter
        (fun (plain, code) ->
          Buffer.add_string text plain;
          Buffer.add_string text (Printf.sprintf "\\u%04X" code);
          Buffer.add_string want plain;
          Buffer.add_utf_8_uchar want (Uchar.of_int code))
        parts;
      Buffer.add_char text '"';
      Json.of_string (Buffer.contents text)
      = Ok (Json.Str (Buffer.contents want)))

(* The decoder's error text, offsets included, for each way a string
   can be malformed. *)
let test_json_string_errors () =
  List.iter
    (fun (text, want) ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "should not parse: %S" text
      | Error e -> Alcotest.(check string) (Printf.sprintf "%S" text) want e)
    [
      ("\"abc", "offset 4: unexpected end of input");
      ("\"a\\", "offset 3: unexpected end of input");
      ("\"ab\\u12", "offset 7: unexpected end of input");
      ("[\"a\\qb\"]", "offset 5: bad escape \\q");
      ("{\"k\":\"a\001b\"}", "offset 8: control character in string");
      ("\"a\\n\031b\"", "offset 5: control character in string");
      ("\"\\u12G4\"", "offset 7: bad \\u escape");
    ]

(* --- Symbol --- *)

let test_symbol_roundtrip () =
  let s = Symbol.intern "desert_bank" in
  Alcotest.(check string) "name round-trips" "desert_bank" (Symbol.name s);
  Alcotest.(check bool)
    "re-interning returns the same handle" true
    (Symbol.equal s (Symbol.intern "desert_bank"));
  Alcotest.(check int)
    "equal handles compare equal" 0
    (Symbol.compare s (Symbol.intern "desert_bank"))

let test_symbol_distinct () =
  let a = Symbol.intern "alpha_sym_test" in
  let b = Symbol.intern "beta_sym_test" in
  Alcotest.(check bool) "distinct names differ" false (Symbol.equal a b);
  Alcotest.(check bool)
    "interning order gives the order" true
    (Symbol.compare a b < 0);
  Alcotest.(check string) "pp prints the name" "alpha_sym_test"
    (Format.asprintf "%a" Symbol.pp a)

let test_symbol_count () =
  let before = Symbol.count () in
  ignore (Symbol.intern "sym_count_probe_1");
  ignore (Symbol.intern "sym_count_probe_1");
  Alcotest.(check int) "re-interning does not grow" (before + 1)
    (Symbol.count ());
  ignore (Symbol.intern "sym_count_probe_2");
  Alcotest.(check int) "fresh name grows by one" (before + 2)
    (Symbol.count ())

let () =
  Alcotest.run "argus-core"
    [
      ( "id",
        [
          Alcotest.test_case "valid" `Quick test_id_valid;
          Alcotest.test_case "invalid raises" `Quick test_id_invalid_raises;
          Alcotest.test_case "option" `Quick test_id_opt;
          Alcotest.test_case "generator" `Quick test_id_gen;
          Alcotest.test_case "generator bad prefix" `Quick test_id_gen_bad_prefix;
          QCheck_alcotest.to_alcotest id_gen_distinct;
        ] );
      ( "loc",
        [
          Alcotest.test_case "merge" `Quick test_loc_merge;
          Alcotest.test_case "dummy" `Quick test_loc_dummy;
          Alcotest.test_case "pp" `Quick test_loc_pp;
        ] );
      ( "diagnostic",
        [
          Alcotest.test_case "ordering" `Quick test_diag_ordering;
          Alcotest.test_case "counts" `Quick test_diag_counts;
          Alcotest.test_case "format" `Quick test_diag_format;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "support table" `Quick test_evidence_support;
          Alcotest.test_case "kind strings" `Quick test_evidence_strings;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "literacy in range" `Quick
            test_lifecycle_literacy_range;
          Alcotest.test_case "engineers most literate" `Quick
            test_lifecycle_engineers_most_literate;
          Alcotest.test_case "every phase has a reader" `Quick
            test_lifecycle_each_phase_has_reader;
          Alcotest.test_case "role strings" `Quick test_role_round_trip;
        ] );
      ( "textutil",
        [
          Alcotest.test_case "words" `Quick test_words;
          Alcotest.test_case "normalise" `Quick test_normalise;
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "syllables" `Quick test_syllables;
          Alcotest.test_case "flesch ordering" `Quick test_flesch_ordering;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
          QCheck_alcotest.to_alcotest levenshtein_symmetry;
          QCheck_alcotest.to_alcotest levenshtein_triangle;
          Alcotest.test_case "symbolic detection" `Quick test_symbolic_detection;
        ] );
      ( "symbol",
        [
          Alcotest.test_case "intern round-trip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "distinct names" `Quick test_symbol_distinct;
          Alcotest.test_case "count" `Quick test_symbol_count;
        ] );
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest json_roundtrip;
          QCheck_alcotest.to_alcotest json_roundtrip_indented;
          QCheck_alcotest.to_alcotest json_string_roundtrip;
          QCheck_alcotest.to_alcotest json_unicode_escapes;
          Alcotest.test_case "string error text" `Quick
            test_json_string_errors;
        ] );
    ]
