(* Planted B1 violation through the pre-block hook: work handed to
   [Evloop.defer] runs on the loop just like a descriptor callback, so a
   blocking call it reaches stalls every connection all the same. *)

module Evloop = Gc_runtime_unix.Evloop

let settle () = Unix.sleepf 0.01

let _queue loop = Evloop.defer loop (fun () -> settle ())
