(* Rebuilds the benchmark's committed inputs and reports any difference.

   The benchmark compiles its own copy of the corpus (so a later edit to
   bench/bench_programs.ml or examples/programs/ does not change a
   workload) plus a size family made from it. This program rebuilds that
   copy from the repository's sources and the family from the corpus with
   a fixed generator seed, then compares with what is committed under
   perfbench/inputs.

     dune exec perfbench/regen/regen.exe            report differences (exit 1 if any)
     dune exec perfbench/regen/regen.exe -- --write rewrite the committed inputs

   Run it from the repository root. *)

let inputs_dir = "perfbench/inputs"
let examples_dir = "examples/programs"

(* The family's generator seed and sizes. Changing either changes every
   workload, so both are fixed here rather than taken from --seed. *)
let family_seed = 2017
let family_sizes = [ 4; 8; 16 ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- the corpus copy ---------------------------------------------- *)

let corpus () : (string * string) list =
  let bench =
    List.map
      (fun (p : Bench_programs.program) ->
        let text =
          if p.uses_streams then Fj_fusion.Streams.source ^ "\n" ^ p.source
          else p.source
        in
        ("bench-" ^ p.name, text))
      Bench_programs.all
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fj")
    |> List.sort compare
    |> List.map (fun f ->
           ( "example-" ^ Filename.chop_suffix f ".fj",
             read_file (Filename.concat examples_dir f) ))
  in
  bench @ examples

(* ---- the size family ---------------------------------------------- *)

let is_ident_start c = (c >= 'a' && c <= 'z') || c = '_'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let lines s = String.split_on_char '\n' s

let declares_data text =
  List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "data ") (lines text)

(* Names of the top-level [def]s, in order. *)
let top_defs text =
  List.filter_map
    (fun l ->
      if String.length l > 4 && String.sub l 0 4 = "def " then
        let n = String.length l in
        let j = ref 4 in
        while !j < n && is_ident_char l.[!j] do incr j done;
        Some (String.sub l 4 (!j - 4))
      else None)
    (lines text)

(* Lowercase names a part may use without binding them: keywords, the
   prelude's top-level definitions and the built-in primitives. *)
let shared_names =
  [ "_"; "data"; "def"; "let"; "rec"; "in"; "case"; "of"; "if"; "then"; "else";
    "ord"; "chr"; "strLen"; "strIdx" ]
  @ top_defs Fj_surface.Prelude.source

(* Rename every lowercase identifier token not in [shared_names] by
   appending [suffix]: top-level definitions, local binders and their
   uses alike. Renaming is consistent within a part, so its meaning is
   unchanged, and no binder of one part shares a name with a binder of
   another. That matters beyond scoping: an allocation site is known by
   its binder's name (Ident.site), so two parts' local [go]s would
   otherwise be counted as one site. Comments are renamed too, which is
   harmless; string literals are copied as they stand, and a character
   literal's letter follows a quote and is left alone. The family's
   value is checked below. *)
let rename suffix text =
  let b = Buffer.create (String.length text + 1024) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    let prev_ok = !i = 0 || not (is_ident_char text.[!i - 1]) in
    if prev_ok && is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      let tok = String.sub text !i (!j - !i) in
      Buffer.add_string b tok;
      if not (List.mem tok shared_names) then Buffer.add_string b suffix;
      i := !j
    end
    else if c = '"' then begin
      (* A string literal is copied as it stands. *)
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' do
        if text.[!j] = '\\' then incr j;
        incr j
      done;
      let j = min n (!j + 1) in
      Buffer.add_string b (String.sub text !i (j - !i));
      i := j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let int_value text =
  match Fj_surface.Prelude.compile text with
  | exception _ -> None
  | _, core -> (
      match Fj_core.Eval.run_outcome core with
      | Fj_core.Eval.Finished (Fj_core.Eval.TLit (Fj_core.Literal.Int n), _) -> Some n
      | _ -> None)

let family corpus : (string * string) list =
  let candidates =
    List.filter
      (fun (_, text) -> (not (declares_data text)) && int_value text <> None)
      corpus
  in
  let rng = Random.State.make [| family_seed |] in
  List.map
    (fun k ->
      (* The first k of a seeded shuffle of the candidates. *)
      let arr = Array.of_list candidates in
      for i = Array.length arr - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let chosen = Array.to_list (Array.sub arr 0 k) in
      let parts =
        List.mapi
          (fun i (name, text) ->
            let suffix = Printf.sprintf "_p%d" i in
            Printf.sprintf "-- part %d: %s\n%s" i name
              (rename suffix text))
          chosen
      in
      let mains = List.mapi (fun i _ -> Printf.sprintf "main_p%d" i) chosen in
      let text =
        Printf.sprintf "-- size family k=%d (generator seed %d)\n%s\ndef main = %s\n" k
          family_seed (String.concat "\n" parts)
          (String.concat " + " mains)
      in
      let name = Printf.sprintf "family-k%02d" k in
      let expect = List.fold_left (fun acc (_, t) -> acc + Option.get (int_value t)) 0 chosen in
      if int_value text <> Some expect then begin
        Printf.eprintf "regen: %s does not evaluate to the sum of its parts' mains (%d)\n" name expect;
        exit 2
      end;
      (name, text))
    family_sizes

(* ---- compare / write ---------------------------------------------- *)

let () =
  let write = Array.exists (( = ) "--write") Sys.argv in
  let c = corpus () in
  let files =
    List.map (fun (n, t) -> (Filename.concat "corpus" (n ^ ".fj"), t)) c
    @ List.map (fun (n, t) -> (Filename.concat "family" (n ^ ".fj"), t)) (family c)
  in
  let differ = ref 0 in
  List.iter
    (fun (rel, text) ->
      let path = Filename.concat inputs_dir rel in
      let old = try Some (read_file path) with Sys_error _ -> None in
      if old <> Some text then begin
        incr differ;
        Printf.printf "%s %s\n" (if old = None then "missing" else "differs") rel;
        if write then begin
          (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
          let oc = open_out_bin path in
          output_string oc text;
          close_out oc
        end
      end)
    files;
  let expected = List.map fst files in
  List.iter
    (fun sub ->
      let dir = Filename.concat inputs_dir sub in
      if Sys.file_exists dir then
        Array.iter
          (fun f ->
            let rel = Filename.concat sub f in
            if not (List.mem rel expected) then begin
              incr differ;
              Printf.printf "extra %s\n" rel;
              if write then Sys.remove (Filename.concat inputs_dir rel)
            end)
          (Sys.readdir dir))
    [ "corpus"; "family" ];
  Printf.printf "%d input file(s), %d difference(s)%s\n" (List.length files) !differ
    (if write && !differ > 0 then " written" else "");
  exit (if !differ > 0 && not write then 1 else 0)
