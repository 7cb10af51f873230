(* Host-speed normalization.

   The benchmark's hosts are shared virtual machines whose speed drifts by
   tens of percent over minutes, as other tenants come and go.  A timing
   taken in a slow minute would read as a regression.  So before every
   pass of a timed loop, and every set-up, the benchmark runs a fixed
   probe — hashing, sorting and list building in the OCaml standard
   library, no code of this repository — and scales the pass's timings by
   [reference_s / probe_s]: they read as times on a host where the probe
   takes [reference_s].  The probe's time is the median of the last five,
   so one noisy probe does not skew a pass.  A change to the repository's
   code cannot move the probe, so it still moves the scaled times. *)

(* CLOCK_MONOTONIC in nanoseconds: the benchmark's per-query times go
   down to tens of microseconds, where the library's gettimeofday-based
   clock would quantize them to whole microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The probe's median time on the host the bounds were fitted on (2-core
   x86-64 VM, Xeon at 2.1 GHz, OCaml 5.1.1, in a quiet minute). *)
let reference_s = 0.009

let data = Array.init 20_000 (fun i -> ((i * 7919) + 13) land 0xfffff)

let probe () =
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  Array.iter (fun x -> Hashtbl.replace h (x land 0x3fff) x) data;
  let a = Array.copy data in
  Array.sort compare a;
  let l =
    List.rev_map (fun x -> x + Hashtbl.find h (x land 0x3fff)) (Array.to_list a)
  in
  ignore (Sys.opaque_identity (List.length l));
  now () -. t0

type t = { mutable recent : float list; mutable all : float list }

(* The first probe of a process runs with cold caches; it is discarded. *)
let create () =
  ignore (probe ());
  { recent = []; all = [] }

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Probe once; return the factor that scales timings taken now. *)
let sample t =
  let p = probe () in
  t.recent <- p :: List.filteri (fun i _ -> i < 4) t.recent;
  t.all <- p :: t.all;
  reference_s /. median_of t.recent

(* Median probe time over every sample so far. *)
let median_probe_s t = if t.all = [] then nan else median_of t.all
