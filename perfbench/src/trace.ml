(* The traced mode's recorder: spans kept in memory and written out once
   the run ends, plus the GC's own phases read through the runtime's
   event ring.

   A span has a name, start and end (ms on the benchmark's clock), the
   index of the span that encloses it (-1 for a root) and the request id
   it belongs to. Recording is off unless [enable] was called; [span]
   then only runs its body. *)

let now_ms () = Unix.gettimeofday () *. 1000.0

type span = {
  name : string;
  start_ms : float;
  end_ms : float;
  parent : int;
  req : int;
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0

(* Open spans: (index reserved for the span, parent index). *)
let stack : int list ref = ref []

let enable () = on := true

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count

let placeholder = { name = ""; start_ms = 0.0; end_ms = 0.0; parent = -1; req = -1 }

(* [span ~req name f] records [f]'s extent. The slot is reserved before
   [f] runs, so children can name it as their parent. *)
let span ~req name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let idx = !count in
    push placeholder;
    stack := idx :: !stack;
    let t0 = now_ms () in
    let finish () =
      let t1 = now_ms () in
      stack := List.tl !stack;
      !spans.(idx) <- { name; start_ms = t0; end_ms = t1; parent; req }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span measured elsewhere (e.g. a pass timed by the pipeline), placed
   under the innermost open span. *)
let add ~req name ~start_ms ~end_ms =
  if !on then
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    push { name; start_ms; end_ms; parent; req }

let all () = Array.sub !spans 0 !count
let dur s = s.end_ms -. s.start_ms

(* Sum of durations of the spans named [name], of requests from
   [from_req] on. *)
let total ?(from_req = min_int) name =
  let t = ref 0.0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name && s.req >= from_req then t := !t +. dur s
  done;
  !t

(* Self time of every span named [name]: its duration minus what its
   direct children cover. *)
let self_total ?(from_req = min_int) name =
  let children = Array.make !count 0.0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then children.(s.parent) <- children.(s.parent) +. dur s
  done;
  let t = ref 0.0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name && s.req >= from_req then t := !t +. dur s -. children.(i)
  done;
  !t

let write_json path =
  let oc = open_out_bin path in
  output_string oc "{\"spans\":[\n";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,\"req\":%d}\n"
      (if i = 0 then "" else ",") i s.name s.start_ms s.end_ms s.parent s.req
  done;
  output_string oc "]}\n";
  close_out oc

(* ---- GC phases, from the runtime's event ring ---------------------- *)

(* Time in minor collections and in major slices, summed over every
   domain's ring. Only used when tracing: the ring costs a little. *)
type gc = { mutable minor_ms : float; mutable major_ms : float }

let gc = { minor_ms = 0.0; major_ms = 0.0 }
let cursor = ref None

(* Open phase start per (ring, phase). *)
let opened : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 16

let callbacks =
  let ts t = Runtime_events.Timestamp.to_int64 t in
  let tracked = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring t phase ->
      if tracked phase then Hashtbl.replace opened (ring, phase) (ts t))
    ~runtime_end:(fun ring t phase ->
      match Hashtbl.find_opt opened (ring, phase) with
      | Some t0 ->
          Hashtbl.remove opened (ring, phase);
          let ms = Int64.to_float (Int64.sub (ts t) t0) /. 1e6 in
          if phase = Runtime_events.EV_MINOR then gc.minor_ms <- gc.minor_ms +. ms
          else gc.major_ms <- gc.major_ms +. ms
      | None -> ())
    ()

let gc_start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Drain the ring; call often enough that it does not wrap. *)
let gc_poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let gc_reset () =
  gc_poll ();
  gc.minor_ms <- 0.0;
  gc.major_ms <- 0.0
