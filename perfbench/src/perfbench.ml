(* The repository benchmark: one workload per process, over one input mix.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see perfbench/README.md for why each exists):
     compile  one request at a time through Service.process_one, no cache
     rebuild  the mix round after round through Service.run_batch and one
              pass cache, a seeded fifth of the sources edited between rounds
     execute  the mix compiled once in set-up, then run on Eval

   Every output is checked against reference results made apart from the
   optimiser. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; the metrics are the
   end-to-end ones untraced and the per-layer ones with --trace 1. *)

open Fj_core
module Service = Fj_service.Service
module Cache = Fj_service.Cache
module Budget = Fj_service.Budget

let now_ms = Trace.now_ms

(* ---- arguments ----------------------------------------------------- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let traced = ref false
let inputs_dir = "perfbench/inputs"
let work_dir = "perfbench/_work"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " compile | rebuild | execute");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), " 1: record spans, print per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* Wrong results found while checking; any makes the run incorrect. *)
let errors = ref []
let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors; prerr_endline ("perfbench: " ^ m)) fmt

(* ---- small helpers ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path

let rec disk_bytes path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun acc f -> acc + disk_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

(* Words allocated by this domain so far (minor + direct major). The
   minor count is exact; the major and promoted counts advance only at
   collections, which is close enough over the many requests a run sums.
   Gc.counters is not used: on OCaml 5.1 it can hand back dangling floats
   (see README.md, "Process deaths"). *)
let domain_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least 10 samples beyond it, the
   eleventh-largest sample, taken as the mean of the ninth- to
   thirteenth-largest: where the samples above it are few and far apart
   (rebuild's, see README.md), one sample more or less there would
   otherwise move it a whole rank. *)
let tail xs =
  let a = Array.of_list (List.sort (fun x y -> compare y x) xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let lo = min 8 (n - 1) and hi = min 12 (n - 1) in
    Array.fold_left ( +. ) 0.0 (Array.sub a lo (hi - lo + 1)) /. float_of_int (hi - lo + 1)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- host speed ---------------------------------------------------- *)

(* The host's speed changes under the benchmark: for seconds, and at times
   for minutes, the same work takes 1.2 to 2 times as long (README.md,
   "Holding timing steady"). A probe, a fixed loop owned by the benchmark,
   is timed between operations every [probe_every_ms]; each operation's
   time is then read against the probes around it (see [settle]). The
   probe takes about [probe_ref_ms] on a 2-core KVM guest of a Xeon
   (Sapphire Rapids) host at its fastest, so the times reported are about
   what they would be there and then. *)
let probe_every_ms = 100.0
let probe_ref_ms = 1.0

(* The probe's times, newest first, and how many there are. *)
let probes = ref []
let n_probes = ref 0
let last_probe = ref neg_infinity

(* A tree built and summed, a hash table filled and a list sorted: the
   allocation-heavy, pointer-chasing kind of work the compiler and Eval
   do, and slowed by the same host states. *)
type tree = Leaf | Node of tree * int * tree

let rec build d x = if d = 0 then Leaf else Node (build (d - 1) ((x * 3) + 1), x, build (d - 1) ((x * 5) + 2))
let rec tree_sum = function Leaf -> 0 | Node (l, x, r) -> tree_sum l + x + tree_sum r

let probe () =
  let t0 = now_ms () in
  let acc = ref 0 in
  for _ = 1 to 3 do
    acc := !acc + tree_sum (build 13 1)
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 3000 do
    Hashtbl.replace h (i * 7919 mod 10007) (string_of_int i)
  done;
  acc := !acc + Hashtbl.length h + List.hd (List.sort compare (List.init 3000 (fun i -> i * 7919 mod 10007)));
  ignore (Sys.opaque_identity !acc);
  let t1 = now_ms () in
  probes := (t1 -. t0) :: !probes;
  incr n_probes;
  last_probe := t1

(* Called between operations. *)
let probe_due () = if now_ms () -. !last_probe >= probe_every_ms then probe ()

(* The probes taken since there were [mark]. *)
let probes_since mark = List.filteri (fun i _ -> i < !n_probes - mark) !probes

(* ---- the input mix ------------------------------------------------- *)

type src = {
  name : string;
  text : string;
  file : string;  (** Where the service reads it. *)
  denv : Datacon.env;
  expect : Eval.tree;  (** The unoptimised program's result on Eval. *)
}

let load_inputs () =
  let dir sub =
    let d = Filename.concat inputs_dir sub in
    if not (Sys.file_exists d) then die "no inputs under %s" d;
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fj")
    |> List.sort compare
    |> List.map (fun f -> (Filename.chop_suffix f ".fj", read_file (Filename.concat d f)))
  in
  let mix = dir "corpus" @ dir "family" in
  if List.length mix <> 38 then die "expected 38 input programs, found %d" (List.length mix);
  mix

(* Reference results, apart from the optimiser: the linked program as the
   front end produced it, run on Eval. *)
let reference src_dir (name, text) =
  let denv, core = Fj_surface.Prelude.compile text in
  match Eval.run_outcome core with
  | Eval.Finished (expect, _) ->
      let file = Filename.concat src_dir (name ^ ".fj") in
      write_file file text;
      { name; text; file; denv; expect }
  | Eval.Fuel_exhausted -> die "reference run of %s ran out of fuel" name
  | Eval.Crashed m -> die "reference run of %s failed: %s" name m

let int_of_tree = function Eval.TLit (Literal.Int n) -> Some n | _ -> None

let check_oracles srcs =
  List.iter
    (fun (name, f) ->
      match Array.find_opt (fun s -> s.name = name) srcs with
      | None -> error "oracle program %s is not in the mix" name
      | Some s ->
          if int_of_tree s.expect <> Some (f ()) then
            error "%s: reference result differs from its OCaml transcription" name)
    Oracle.all

(* ---- compiling ----------------------------------------------------- *)

let base_config () = Service.default_config ()

let compiled (o : Service.outcome) =
  match o.status with
  | Service.Compiled { a_rung = Service.Full; a_output; _ } -> Ok a_output
  | st -> Error (Service.status_name st)

(* One request on this domain: output, wall ms, words allocated. *)
let compile_one cfg ~id src_file =
  let w0 = domain_words () in
  let t0 = now_ms () in
  let o = Service.process_one cfg ~id ~path:src_file in
  let ms = now_ms () -. t0 in
  (o, ms, domain_words () -. w0)

(* The same request decomposed into the layers the service calls, each
   in its own span: front end, lint, passes, serialisation. The output
   must be byte-identical to the service's. Only the traced mode runs it. *)
type layers = {
  mutable requests : int;
  mutable link_nodes : int;
  mutable front_words : float;
  mutable out_bytes : int;
  pass_ms : (string, float) Hashtbl.t;
  pass_words : (string, float) Hashtbl.t;
  mutable lookups : int;
  mutable lookup_ms : float;
  mutable stores : int;
  mutable store_ms : float;
  mutable reads : int;
}

let fresh_layers () =
  {
    requests = 0;
    link_nodes = 0;
    front_words = 0.0;
    out_bytes = 0;
    pass_ms = Hashtbl.create 8;
    pass_words = Hashtbl.create 8;
    lookups = 0;
    lookup_ms = 0.0;
    stores = 0;
    store_ms = 0.0;
    reads = 0;
  }

let layers = fresh_layers ()

let pass_families = [ "simplify"; "float-in"; "float-out"; "contify"; "cse"; "demand"; "spec-constr" ]

let family_of pass =
  match String.index_opt pass ' ' with Some i -> String.sub pass 0 i | None -> pass

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* The monotonic clock the pipeline stamps its spans with, against ours. *)
let clock_offset = now_ms () -. Telemetry.now_ms ()

let timed_cache layers (c : Pipeline.pass_cache) : Pipeline.pass_cache =
  {
    Pipeline.cache_lookup =
      (fun ~pass ~supply ~input ->
        let t0 = now_ms () in
        let r = c.Pipeline.cache_lookup ~pass ~supply ~input in
        layers.lookups <- layers.lookups + 1;
        layers.lookup_ms <- layers.lookup_ms +. (now_ms () -. t0);
        r);
    cache_store =
      (fun ~pass ~supply ~input cp ->
        let t0 = now_ms () in
        c.Pipeline.cache_store ~pass ~supply ~input cp;
        layers.stores <- layers.stores + 1;
        layers.store_ms <- layers.store_ms +. (now_ms () -. t0));
  }

(* Decomposed requests before this one (the rebuild's cold fill) are
   traced but left out of the per-layer figures. *)
let first_req = ref 0

let decompose ~req ?cache (cfg : Service.config) text =
  let counted = req >= !first_req in
  let layers = if counted then layers else fresh_layers () in
  Context.with_fresh @@ fun () ->
  Trace.span ~req "request" @@ fun () ->
  let w0 = domain_words () in
  let prog = Trace.span ~req "front.parse" (fun () -> Fj_surface.Parser.parse (Fj_surface.Prelude.source ^ "\n" ^ text)) in
  let checked = Trace.span ~req "front.infer" (fun () -> Fj_surface.Infer.check_program prog) in
  let core = Trace.span ~req "front.link" (fun () -> Fj_surface.Infer.link checked) in
  layers.front_words <- layers.front_words +. (domain_words () -. w0);
  layers.link_nodes <- layers.link_nodes + Syntax.size core;
  let denv = checked.Fj_surface.Infer.env in
  (match Trace.span ~req "lint" (fun () -> Lint.lint_result denv core) with
  | Ok _ -> ()
  | Error _ -> error "request %d: linked program does not lint" req);
  let pcfg =
    {
      cfg.Service.pipeline with
      Pipeline.datacons = denv;
      limits = Budget.limits cfg.Service.budget;
      cache =
        Option.map
          (fun c ->
            timed_cache layers
              (Cache.pass_cache c ~fingerprint:(Service.fingerprint cfg Service.Full) ~datacons:denv))
          cache;
    }
  in
  let core', report =
    Trace.span ~req "passes" (fun () ->
        let ((_, report) as r) = Pipeline.run_report pcfg core in
        List.iter
          (fun (s : Span.span) ->
            if s.Span.sp_cat = "pass" then
              let start_ms = s.Span.sp_start_ms +. clock_offset in
              Trace.add ~req ("pass." ^ family_of s.Span.sp_name) ~start_ms ~end_ms:(start_ms +. s.Span.sp_dur_ms))
          (Pipeline.spans report);
        r)
  in
  List.iter
    (fun (p : Pipeline.pass_record) ->
      if p.Pipeline.pass <> "input" then begin
        let fam = family_of p.Pipeline.pass in
        bump layers.pass_ms fam p.Pipeline.duration_ms;
        bump layers.pass_words fam (Gcstats.alloc_words p.Pipeline.gc)
      end)
    (Pipeline.passes report);
  let out = Trace.span ~req "sexp.write" (fun () -> Sexp.write core') in
  layers.requests <- layers.requests + 1;
  layers.out_bytes <- layers.out_bytes + String.length out;
  out

(* ---- checking outputs ---------------------------------------------- *)

type run_counts = {
  mutable runs : int;
  mutable ev_steps : int;
  mutable ev_words : int;
  mutable ev_jumps : int;
  mutable ev_updates : int;
  mutable ev_max_stack : int;
  mutable bm_runs : int;
  mutable bm_steps : int;
  mutable bm_calls : int;
  mutable bm_jumps : int;
  mutable bm_words : int;
}

let counts =
  {
    runs = 0; ev_steps = 0; ev_words = 0; ev_jumps = 0; ev_updates = 0; ev_max_stack = 0;
    bm_runs = 0; bm_steps = 0; bm_calls = 0; bm_jumps = 0; bm_words = 0;
  }

let note_eval (st : Eval.stats) =
  counts.runs <- counts.runs + 1;
  counts.ev_steps <- counts.ev_steps + st.Eval.steps;
  counts.ev_words <- counts.ev_words + st.Eval.words;
  counts.ev_jumps <- counts.ev_jumps + st.Eval.jumps;
  counts.ev_updates <- counts.ev_updates + st.Eval.updates;
  counts.ev_max_stack <- counts.ev_max_stack + st.Eval.max_stack

let read_output ~req src out =
  layers.reads <- layers.reads + 1;
  Trace.span ~req "sexp.read" (fun () -> Sexp.read src.denv out)

(* Lower + Bmachine must agree with Eval on [core]. *)
let cross_check ~req src core =
  match
    let prog = Trace.span ~req "lower" (fun () -> Fj_machine.Lower.lower_program core) in
    Trace.span ~req "bm" (fun () -> Fj_machine.Bmachine.run prog)
  with
  | v, st ->
      counts.bm_runs <- counts.bm_runs + 1;
      counts.bm_steps <- counts.bm_steps + st.Mstats.steps;
      counts.bm_calls <- counts.bm_calls + st.Mstats.calls;
      counts.bm_jumps <- counts.bm_jumps + st.Mstats.jumps;
      counts.bm_words <- counts.bm_words + st.Mstats.words;
      Eval.equal_tree (Fj_machine.Bmachine.tree_of_value v) src.expect
  | exception e ->
      prerr_endline ("perfbench: " ^ src.name ^ ": block machine: " ^ Printexc.to_string e);
      false

(* Check one compiled output: it reads back, lints, evaluates to the
   expected result, the block machine agrees, and no join-point site
   allocates. Each distinct output is checked once, outside timed
   regions. True when the output is good. *)
let verified : (string, bool) Hashtbl.t = Hashtbl.create 64

let verify ?(expect : Eval.tree option) ~req src out =
  let expect = Option.value expect ~default:src.expect in
  let key = src.name ^ "\000" ^ out in
  match Hashtbl.find_opt verified key with
  | Some ok -> ok
  | None ->
      let wrong fmt = Printf.ksprintf (fun m -> error "%s: %s" src.name m; false) fmt in
      let ok =
        match read_output ~req src out with
        | exception e -> wrong "output does not read back: %s" (Printexc.to_string e)
        | core -> (
            match Lint.lint_result src.denv core with
            | Error e ->
                let m = Fmt.str "%a" Lint.pp_error e in
                wrong "output does not lint: %s" (if String.length m > 160 then String.sub m 0 160 else m)
            | Ok _ -> (
                let profile = Profile.create ~trace_cap:0 () in
                match Trace.span ~req "eval" (fun () -> Eval.run_outcome ~profile core) with
                | Eval.Finished (t, st) ->
                    note_eval st;
                    if not (Eval.equal_tree t expect) then wrong "output evaluates to a different result"
                    else if not (cross_check ~req { src with expect } core) then
                      wrong "block machine disagrees with Eval"
                    else if List.exists (fun s -> s.Profile.s_words <> 0) (Profile.join_sites profile) then
                      wrong "a join-point site allocated"
                    else true
                | _ -> wrong "output does not run to a value"))
      in
      Hashtbl.replace verified key ok;
      ok

(* Whether each set-up output passed [verify]. An operation whose output
   is the set-up one failed when that did. *)
let good = ref [||]

(* ---- timing samples ------------------------------------------------- *)

(* The timed operations of the run, newest first: each one's time, the
   number of probes taken before it, and its round. *)
let timed = ref []

let sample ~round ms = timed := (ms, !n_probes, round) :: !timed

(* Operations are read in whole rounds; rebuild reads only its first
   cycle of five rounds, so that what it reads has every editable source
   as a store once and a replay four times, whatever the seed and however
   many rounds the run makes. *)
let rounds_read = ref max_int

(* How many probes, half before and half after it, an operation is read
   against: their median, so that one probe hit by an interrupt or a
   collection does not count. *)
let probe_window = 6

(* The times of the operations read, each times probe_ref_ms over the
   median of the probes around it. *)
let settle () =
  let p = Array.of_list (List.rev !probes) in
  let n = Array.length p in
  let k = min probe_window n in
  List.filter_map
    (fun (ms, before, round) ->
      if round >= !rounds_read then None
      else
        let lo = max 0 (min (n - k) (before - (k / 2))) in
        let local = if k = 0 then probe_ref_ms else median (Array.to_list (Array.sub p lo k)) in
        Some (ms *. probe_ref_ms /. local))
    !timed

(* Words the compiler allocated over set-up's compiles: execute's
   compile_kwords, since its loop does not compile. *)
let setup_words = ref 0.0
let setup_compiles = ref 0

(* ---- set-up --------------------------------------------------------- *)

(* Set-up writes the inputs out, makes the reference results, compiles
   the mix once through the service without a cache, as fjc batch does,
   and runs each output once on Eval. *)
type setup = {
  srcs : src array;
  outputs : string array;  (** The serial, uncached compile of each source. *)
  cores : Syntax.expr array;  (** Those outputs read back. *)
  first : (int * int) array;  (** Words and steps of each output's run. *)
}

let setup_reps = 5

let set_up () =
  let src_dir = Filename.concat work_dir "src" in
  fresh_dir src_dir;
  let srcs =
    Array.of_list
      (List.map
         (fun input ->
           probe_due ();
           reference src_dir input)
         (load_inputs ()))
  in
  let cfg = base_config () in
  let outputs =
    Array.map
      (fun s ->
        probe_due ();
        let o, _, words = compile_one cfg ~id:s.name s.file in
        incr setup_compiles;
        setup_words := !setup_words +. words;
        match compiled o with Ok out -> out | Error st -> die "set-up compile of %s: %s" s.name st)
      srcs
  in
  let cores = Array.mapi (fun i s -> Sexp.read s.denv outputs.(i)) srcs in
  let first =
    Array.mapi
      (fun i s ->
        probe_due ();
        match Eval.run_outcome cores.(i) with
        | Eval.Finished (_, st) -> (st.Eval.words, st.Eval.steps)
        | _ -> die "set-up run of %s did not run to a value" s.name)
      srcs
  in
  { srcs; outputs; cores; first }

(* ---- the measured phases ------------------------------------------- *)

type window = {
  mutable ops : int;
  mutable failed : int;
  mutable words : float;  (** Compiler words over [compiles] requests. *)
  mutable compiles : int;
  mutable svc_ms : float;  (** Σ request time as the service saw it. *)
  mutable idle_ms : float;
  mutable respawns : int;
}

let window () =
  { ops = 0; failed = 0; words = 0.0; compiles = 0; svc_ms = 0.0; idle_ms = 0.0; respawns = 0 }

let req_counter = ref 0

let next_req () =
  incr req_counter;
  !req_counter

(* Run [round] until [secs] have passed, whole rounds only and at least
   [min_rounds]. *)
let rounds ?(min_rounds = 1) secs round =
  let t0 = now_ms () in
  let r = ref 0 in
  while !r < min_rounds || now_ms () -. t0 < secs *. 1000.0 do
    round !r;
    incr r;
    if !traced then Trace.gc_poll ()
  done

(* compile: one request at a time on this domain, no cache. *)
let run_compile rng su secs w =
  let cfg = base_config () in
  let n = Array.length su.srcs in
  let pending = ref [] in
  rounds secs (fun r ->
        Array.iter
          (fun i ->
            let s = su.srcs.(i) in
            let req = next_req () in
            (* The traced run also decomposes the request, before or after
               the service call in turn, so neither inherits the other's
               garbage every time. *)
            let decomposed () = if !traced then Some (decompose ~req cfg s.text) else None in
            let before = if req mod 2 = 0 then decomposed () else None in
            probe_due ();
            let o, ms, words = Trace.span ~req "svc.process_one" (fun () -> compile_one cfg ~id:s.name s.file) in
            let after = if req mod 2 = 1 then decomposed () else None in
            w.ops <- w.ops + 1;
            w.compiles <- w.compiles + 1;
            sample ~round:r ms;
            w.words <- w.words +. words;
            w.svc_ms <- w.svc_ms +. o.Service.ms;
            w.idle_ms <- w.idle_ms +. (ms -. o.Service.ms);
            match compiled o with
            | Error st ->
                error "%s: %s" s.name st;
                w.failed <- w.failed + 1
            | Ok out ->
                if out <> su.outputs.(i) then pending := (i, out) :: !pending
                else if not !good.(i) then w.failed <- w.failed + 1;
                (match (before, after) with
                | Some d, _ | _, Some d ->
                    if d <> out then error "%s: decomposed compile differs from the service's" s.name
                | None, None -> ()))
          (shuffle rng (Array.init n Fun.id)));
  (* A serial compile that differs from set-up's is nondeterminism. *)
  List.iter
    (fun (i, out) ->
      error "%s: serial compile differs from set-up's" su.srcs.(i).name;
      if not (verify ~req:0 su.srcs.(i) out) then w.failed <- w.failed + 1)
    !pending

(* rebuild: the mix through one pass cache; before each round a fifth of
   the sources whose main is an Int gets [main + c] for a fresh seeded c.
   Each cycle of five rounds edits every such source once. *)
let edit text c =
  let marker = "\ndef main " in
  let marker_at0 = "def main " in
  let i =
    if String.length text >= String.length marker_at0 && String.sub text 0 (String.length marker_at0) = marker_at0
    then 0
    else
      let rec find k =
        if k + String.length marker > String.length text then die "no `def main` to edit"
        else if String.sub text k (String.length marker) = marker then k + 1
        else find (k + 1)
      in
      find 0
  in
  String.sub text 0 i ^ "def main_base " ^ String.sub text (i + 9) (String.length text - i - 9)
  ^ Printf.sprintf "\ndef main = main_base + %d\n" c

let cache_dir name = Filename.concat work_dir name

(* One batch through the service on this domain (jobs = 1: the queue and
   the supervisor run inline); its requests are timed as operations of
   [round], if given. The
   traced run then replays the batch, in queue order, through the
   decomposed compile and the replica cache. *)
let run_batch_here cfg ?replica ?round w sources =
  let w0 = domain_words () in
  let t0 = now_ms () in
  let b =
    Trace.span ~req:(next_req ()) "svc.run_batch" (fun () ->
        Service.run_batch cfg (List.map (fun (id, path, _) -> (id, path)) sources))
  in
  let wall = now_ms () -. t0 in
  w.words <- w.words +. (domain_words () -. w0);
  w.respawns <- w.respawns + b.Service.b_respawns;
  let busy = List.fold_left (fun acc (o : Service.outcome) -> acc +. o.Service.ms) 0.0 b.Service.b_outcomes in
  w.svc_ms <- w.svc_ms +. busy;
  w.idle_ms <- w.idle_ms +. (wall -. busy);
  let by_id = Hashtbl.create 64 in
  List.iter (fun (o : Service.outcome) -> Hashtbl.replace by_id o.Service.id o) b.Service.b_outcomes;
  Option.iter
    (fun round ->
      List.iter
        (fun (id, _, _) -> Option.iter (fun (o : Service.outcome) -> sample ~round o.Service.ms) (Hashtbl.find_opt by_id id))
        sources)
    round;
  List.map
    (fun (id, _, text) ->
      match Hashtbl.find_opt by_id id with
      | None -> die "batch returned no outcome for %s" id
      | Some o ->
          (match replica with
          | Some c ->
              let out = decompose ~req:(next_req ()) ~cache:c cfg text in
              if compiled o <> Ok out then error "%s: decomposed compile differs from the service's" id
          | None -> ());
          o)
    sources

let run_rebuild rng su secs w =
  let n = Array.length su.srcs in
  (* Both caches start empty: a process that died (see run.py) leaves its
     entries behind, and the run started again in its place, with the
     same seed and so the same edits, would replay them. *)
  List.iter (fun d -> fresh_dir (cache_dir d)) [ "cache"; "cache-replica" ];
  let cache = Cache.create ~dir:(cache_dir "cache") () in
  (* The traced run replays the same history into a second cache through
     the decomposed compile, so its lookups and stores can be timed. *)
  let replica = if !traced then Some (Cache.create ~dir:(cache_dir "cache-replica") ()) else None in
  let cfg = { (base_config ()) with Service.cache = Some cache } in
  (* Cold fill, untimed: every source stored once. *)
  let cold = window () in
  first_req := max_int;
  let order = Array.init n Fun.id in
  List.iteri
    (fun k (o : Service.outcome) ->
      let i = order.(k) in
      if compiled o <> Ok su.outputs.(i) then error "%s: cold cached compile differs from the uncached one" su.srcs.(i).name)
    (run_batch_here cfg ?replica cold (Array.to_list (Array.map (fun i -> (su.srcs.(i).name, su.srcs.(i).file, su.srcs.(i).text)) order)));
  let st0 = Cache.stats cache in
  first_req := !req_counter + 1;
  let editable =
    Array.of_list (List.filter (fun i -> int_of_tree su.srcs.(i).expect <> None) (List.init n Fun.id))
  in
  let groups = ref [||] in
  let edited = ref [] in
  let replayed = Array.make n 0 in
  let round_words = ref [] in
  (* At least one cycle, so every editable source has a miss sample. *)
  rounds ~min_rounds:5 secs (fun r ->
        if r mod 5 = 0 then begin
          let p = shuffle rng editable in
          groups := Array.init 5 (fun g -> List.filteri (fun k _ -> k mod 5 = g) (Array.to_list p))
        end;
        let group = !groups.(r mod 5) in
        let texts = Array.map (fun s -> s.text) su.srcs in
        let consts = Array.make n 0 in
        List.iter
          (fun i ->
            let c = 1 + Random.State.int rng 999_983 in
            consts.(i) <- c;
            texts.(i) <- edit su.srcs.(i).text c;
            write_file su.srcs.(i).file texts.(i))
          group;
        let order = shuffle rng (Array.init n Fun.id) in
        let words0 = w.words in
        let outcomes =
          (* One request per batch, so that the probe can be timed between
             requests: a batch of the mix takes seconds, and the host's
             speed moves within that. *)
          List.concat_map
            (fun i ->
              probe_due ();
              run_batch_here cfg ?replica ~round:r w [ (Printf.sprintf "%s@%d" su.srcs.(i).name r, su.srcs.(i).file, texts.(i)) ])
            (Array.to_list order)
        in
        round_words := (w.words -. words0) :: !round_words;
        List.iteri
          (fun k (o : Service.outcome) ->
            let i = order.(k) in
            let s = su.srcs.(i) in
            w.ops <- w.ops + 1;
            match compiled o with
            | Error st ->
                error "%s: %s" s.name st;
                w.failed <- w.failed + 1
            | Ok out ->
                if consts.(i) <> 0 then edited := (i, consts.(i), texts.(i), out) :: !edited
                else begin
                  replayed.(i) <- replayed.(i) + 1;
                  if out <> su.outputs.(i) then begin
                    error "%s: replayed output differs from the uncached compile" s.name;
                    w.failed <- w.failed + 1
                  end
                  else if not !good.(i) then w.failed <- w.failed + 1
                end)
          outcomes;
        List.iter (fun i -> write_file su.srcs.(i).file su.srcs.(i).text) group);
  (* Which sources a round edits depends on the seed, but each cycle of
     five rounds edits every editable source once: compile_kwords counts
     whole cycles only, so it does not depend on the seed. *)
  let whole = List.length !round_words / 5 * 5 in
  rounds_read := 5;
  w.words <- List.fold_left ( +. ) 0.0 (List.filteri (fun k _ -> k < whole) (List.rev !round_words));
  w.compiles <- whole * n;
  let st = Cache.stats cache in
  (* Check, untimed: each edited output against an uncached compile of the
     same edited source, and against the reference result plus c. *)
  let plain = base_config () in
  let vfile = Filename.concat work_dir "edited.fj" in
  let lookups_of = Hashtbl.create 64 in
  List.iter
    (fun (i, c, text, out) ->
      let s = su.srcs.(i) in
      write_file vfile text;
      let o, _, _ = compile_one plain ~id:s.name vfile in
      let expect = match int_of_tree s.expect with Some v -> Eval.TLit (Literal.Int (v + c)) | None -> s.expect in
      let bad =
        if compiled o <> Ok out then begin
          error "%s: cached compile of an edited source differs from the uncached one" s.name;
          true
        end
        else not (verify ~expect ~req:0 s out)
      in
      if bad then w.failed <- w.failed + 1)
    !edited;
  (* Every pass of every request looks the cache up once. *)
  let passes_of i =
    match Hashtbl.find_opt lookups_of i with
    | Some k -> k
    | None ->
        let counter = ref 0 in
        let count_cache =
          {
            Pipeline.cache_lookup = (fun ~pass:_ ~supply:_ ~input:_ -> incr counter; None);
            cache_store = (fun ~pass:_ ~supply:_ ~input:_ _ -> ());
          }
        in
        let s = su.srcs.(i) in
        Context.with_fresh (fun () ->
            let denv, core = Fj_surface.Prelude.compile s.text in
            ignore (Pipeline.run_report { plain.Service.pipeline with Pipeline.datacons = denv; cache = Some count_cache } core));
        Hashtbl.replace lookups_of i !counter;
        !counter
  in
  let lookups =
    List.fold_left (fun acc (i, _, _, _) -> acc + passes_of i) 0 !edited
    + Array.fold_left ( + ) 0 (Array.mapi (fun i k -> if k = 0 then 0 else k * passes_of i) replayed)
  in
  let hits = st.Cache.hits - st0.Cache.hits and misses = st.Cache.misses - st0.Cache.misses in
  if hits + misses <> lookups then error "cache: %d hits + %d misses <> %d lookups" hits misses lookups;
  if st.Cache.quarantined <> 0 then error "cache: %d entries quarantined" st.Cache.quarantined;
  ( (hits, misses, st.Cache.stores - st0.Cache.stores, st.Cache.quarantined),
    (layers.lookups, layers.lookup_ms, layers.stores, layers.store_ms),
    disk_bytes (cache_dir "cache") )

(* execute: the set-up outputs on Eval, round after round. Every run's
   result must be the reference, and its words and steps those of the
   output's set-up run. *)
let run_execute rng su secs w =
  rounds secs (fun r ->
      Array.iter
        (fun i ->
          let s = su.srcs.(i) in
          let req = next_req () in
          w.ops <- w.ops + 1;
          probe_due ();
          let t0 = now_ms () in
          let outcome = Trace.span ~req "eval" (fun () -> Eval.run_outcome su.cores.(i)) in
          let ms = now_ms () -. t0 in
          sample ~round:r ms;
          match outcome with
          | Eval.Finished (t, st) ->
              if !traced then begin
                note_eval st;
                if not (cross_check ~req s su.cores.(i)) then error "%s: block machine disagrees with Eval" s.name
              end;
              if not (Eval.equal_tree t s.expect && (st.Eval.words, st.Eval.steps) = su.first.(i)) then begin
                error "%s: run differs from the reference or from its set-up run" s.name;
                w.failed <- w.failed + 1
              end
              else if not !good.(i) then w.failed <- w.failed + 1
          | _ ->
              error "%s: output does not run to a value" s.name;
              w.failed <- w.failed + 1)
        (shuffle rng (Array.init (Array.length su.srcs) Fun.id)))

(* ---- main ---------------------------------------------------------- *)

let () =
  if not (List.mem !workload [ "compile"; "rebuild"; "execute" ]) then
    die "unknown workload %S" !workload;
  if !seconds <= 0.0 then die "--seconds must be positive";
  let rng = Random.State.make [| !seed; Hashtbl.hash !workload |] in
  (* Set-up, several times; its median is setup_s. Each is read against
     the probes taken in it (and the one just before), as an operation
     is, and the probes' own time is left out. *)
  let times = ref [] and walls = ref [] in
  let su = ref None in
  for _ = 1 to setup_reps do
    probe ();
    let mark = !n_probes in
    let t0 = now_ms () in
    let s = set_up () in
    let wall = now_ms () -. t0 in
    let inside = probes_since mark in
    let local = median (probes_since (mark - 1)) in
    walls := wall /. 1000.0 :: !walls;
    times := (wall -. List.fold_left ( +. ) 0.0 inside) *. probe_ref_ms /. local /. 1000.0 :: !times;
    (match !su with
    | Some prev when prev.outputs <> s.outputs || prev.first <> s.first ->
        error "set-up compiles or runs differ between repetitions"
    | _ -> ());
    su := Some s
  done;
  let su = Option.get !su in
  let setup_s = median !times in
  if !traced then begin
    Trace.enable ();
    Trace.gc_start ()
  end;
  check_oracles su.srcs;
  good := Array.mapi (fun i s -> verify ~req:0 s su.outputs.(i)) su.srcs;
  let out_nodes = Array.fold_left (fun acc c -> acc + Syntax.size c) 0 su.cores in
  (* The execute workload compiles only in set-up; its traced run
     compiles the mix once more, through the service and decomposed. *)
  let exec_svc_ms = ref 0.0 in
  if !traced && !workload = "execute" then
    Array.iter
      (fun s ->
        let req = next_req () in
        let _, ms, _ = Trace.span ~req "svc.process_one" (fun () -> compile_one (base_config ()) ~id:s.name s.file) in
        exec_svc_ms := !exec_svc_ms +. ms;
        ignore (decompose ~req (base_config ()) s.text))
      su.srcs;
  Trace.gc_reset ();
  let gc0 = Gc.quick_stat () in
  let loop_mark = !n_probes in
  let w = window () in
  let cache_figures = ref ((0, 0, 0, 0), (0, 0.0, 0, 0.0), 0) in
  (match !workload with
  | "compile" -> run_compile rng su !seconds w
  | "rebuild" -> cache_figures := run_rebuild rng su !seconds w
  | _ -> run_execute rng su !seconds w);
  let gc1 = Gc.quick_stat () in
  if !traced then Trace.gc_poll ();
  let op_times = settle () in
  let read_ms = List.fold_left ( +. ) 0.0 op_times in
  let loop_probes = probes_since loop_mark in
  let execute = !workload = "execute" in
  let attempted = w.ops in
  let failed = w.failed in
  let fl = float_of_int in
  let per n v = if n = 0 then 0.0 else v /. fl n in
  let end_to_end =
    (* The layer a workload's loop does not load is read from its set-up:
       compiling on execute, running on compile and rebuild. *)
    let words, n_words = if execute then (!setup_words, !setup_compiles) else (w.words, w.compiles) in
    let run_words, run_steps = Array.fold_left (fun (a, b) (wd, sp) -> (a + wd, b + sp)) (0, 0) su.first in
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", (if read_ms = 0.0 then 0.0 else 1000.0 *. float_of_int (List.length op_times) /. read_ms), "ops/s");
      ("op_ms_p50", median op_times, "ms");
      ("op_ms_tail", tail op_times, "ms");
      ("compile_kwords", words /. fl n_words /. 1000.0, "kwords");
      ("out_nodes", fl out_nodes, "nodes");
      ("run_words", fl run_words, "words");
      ("run_steps", fl run_steps, "steps");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let metrics =
    if not !traced then end_to_end
    else begin
      let r = layers.requests in
      let span_mean name = per r (Trace.total ~from_req:!first_req name) in
      let (hits, misses, stores, quarantined), (lookups, lookup_ms, lstores, store_ms), disk = !cache_figures in
      let reqs_seen = if execute then Array.length su.srcs else w.ops in
      let svc_mean = if execute then per r !exec_svc_ms else per w.ops w.svc_ms in
      let pass_metrics =
        List.concat_map
          (fun fam ->
            [
              (Printf.sprintf "pass.%s.ms" fam, per r (Option.value ~default:0.0 (Hashtbl.find_opt layers.pass_ms fam)), "ms");
              ( Printf.sprintf "pass.%s.kwords" fam,
                per r (Option.value ~default:0.0 (Hashtbl.find_opt layers.pass_words fam)) /. 1000.0,
                "kwords" );
            ])
          pass_families
      in
      let ops = max 1 attempted in
      [
        ("front.parse_ms", span_mean "front.parse", "ms");
        ("front.infer_ms", span_mean "front.infer", "ms");
        ("front.link_ms", span_mean "front.link", "ms");
        ("front.link_nodes", per r (fl layers.link_nodes), "nodes");
        ("front.kwords", per r layers.front_words /. 1000.0, "kwords");
        ("lint.ms", span_mean "lint", "ms");
      ]
      @ pass_metrics
      @ [
          ("pass.total_ms", span_mean "passes", "ms");
          ("sexp.write_ms", span_mean "sexp.write", "ms");
          ("sexp.read_ms", per layers.reads (Trace.total "sexp.read"), "ms");
          ("sexp.bytes", per r (fl layers.out_bytes), "bytes");
          ("svc.self_ms", svc_mean -. span_mean "request", "ms");
          ("svc.idle_ms", per reqs_seen w.idle_ms, "ms");
          ("svc.respawns", fl w.respawns, "count");
          ("cache.hits", fl hits, "count");
          ("cache.misses", fl misses, "count");
          ("cache.stores", fl stores, "count");
          ("cache.quarantined", fl quarantined, "count");
          ("cache.hit_ratio", (if hits + misses = 0 then 0.0 else fl hits /. fl (hits + misses)), "ratio");
          ("cache.lookup_ms", per lookups lookup_ms, "ms");
          ("cache.store_ms", per lstores store_ms, "ms");
          ("cache.disk_kb", fl disk /. 1024.0, "KB");
          ("eval.ms", per counts.runs (Trace.total "eval"), "ms");
          ("eval.steps", per counts.runs (fl counts.ev_steps), "steps");
          ("eval.words", per counts.runs (fl counts.ev_words), "words");
          ("eval.jumps", per counts.runs (fl counts.ev_jumps), "count");
          ("eval.updates", per counts.runs (fl counts.ev_updates), "count");
          ("eval.max_stack", per counts.runs (fl counts.ev_max_stack), "frames");
          ("lower.ms", per counts.bm_runs (Trace.total "lower"), "ms");
          ("bm.ms", per counts.bm_runs (Trace.total "bm"), "ms");
          ("bm.steps", per counts.bm_runs (fl counts.bm_steps), "steps");
          ("bm.calls", per counts.bm_runs (fl counts.bm_calls), "count");
          ("bm.jumps", per counts.bm_runs (fl counts.bm_jumps), "count");
          ("bm.words", per counts.bm_runs (fl counts.bm_words), "words");
          ("gc.minor_count", per ops (fl (gc1.Gc.minor_collections - gc0.Gc.minor_collections)), "count");
          ("gc.major_count", per ops (fl (gc1.Gc.major_collections - gc0.Gc.major_collections)), "count");
          ("gc.minor_ms", per ops Trace.gc.Trace.minor_ms, "ms");
          ("gc.major_ms", per ops Trace.gc.Trace.major_ms, "ms");
          ("host.probe_ms", median loop_probes, "ms");
        ]
    end
  in
  if !traced then begin
    let path = Filename.concat work_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed) in
    Trace.write_json path;
    (* How much of each decomposed request its layers account for. *)
    let req_ms = Trace.total ~from_req:!first_req "request"
    and glue = Trace.self_total ~from_req:!first_req "request" in
    Printf.eprintf "perfbench: spans %d written to %s; request self time %.2f%% of %.0f ms\n%!"
      (Array.length (Trace.all ())) path
      (if req_ms = 0.0 then 0.0 else 100.0 *. glue /. req_ms)
      req_ms;
    (* Traced, the end-to-end figures show the tracing overhead. *)
    List.iter (fun (k, v, u) -> Printf.eprintf "perfbench: traced %s %.4f %s\n" k v u) end_to_end
  end;
  (* The probe's fastest, median and slowest time over the timed loop
     show how much the host's speed moved during the run. *)
  let fmt l = String.concat "," (List.rev_map (Printf.sprintf "%.4f") l) in
  let sorted = List.sort compare loop_probes in
  Printf.eprintf
    "perfbench: {\"workload\":%S,\"seed\":%d,\"ops_read\":%d,\"probes\":%d,\"host_probe_ms\":[%s],\"setup_wall_s\":[%s],\"setup_s\":[%s]}\n%!"
    !workload !seed (List.length op_times) (List.length sorted)
    (fmt (match sorted with [] -> [] | first :: _ -> List.rev [ first; median sorted; List.nth sorted (List.length sorted - 1) ]))
    (fmt !walls) (fmt !times);
  (* Leave only the spans behind. *)
  List.iter (fun d -> rm_rf (Filename.concat work_dir d)) [ "src"; "cache"; "cache-replica"; "edited.fj" ];
  let correct = !errors = [] in
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", "
       (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u) metrics))
