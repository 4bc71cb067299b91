(* Streaming trace consumers.

   A sink is the analysis side of the paper's generation/analysis
   alternation: [on_words] per ANALYZE phase, [finish] once at the end.
   Everything here is glue — the point is that the endpoints (parser,
   writer, counters) and the fan-out compose without any of them ever
   seeing more than one chunk. *)

type t = {
  on_words : int array -> len:int -> unit;
  finish : unit -> unit;
}

let make ?(finish = fun () -> ()) on_words = { on_words; finish }

let null = { on_words = (fun _ ~len:_ -> ()); finish = (fun () -> ()) }

let tee sinks =
  {
    on_words =
      (fun words ~len -> List.iter (fun s -> s.on_words words ~len) sinks);
    finish =
      (fun () ->
        (* Every branch must get its finish even if an earlier one raises
           — a failing parser must not leave a file sink unclosed.  The
           first exception wins, after the sweep. *)
        let first =
          List.fold_left
            (fun first s ->
              match s.finish () with
              | () -> first
              | exception e -> if first = None then Some e else first)
            None sinks
        in
        match first with Some e -> raise e | None -> ());
  }

let counting () =
  let n = ref 0 in
  ( { on_words = (fun _ ~len -> n := !n + len); finish = (fun () -> ()) },
    fun () -> !n )

let peak () =
  let p = ref 0 in
  ( {
      on_words = (fun _ ~len -> if len > !p then p := len);
      finish = (fun () -> ());
    },
    fun () -> !p )

let to_parser ?live p =
  {
    on_words = (fun words ~len -> Parser.feed p words ~len);
    finish = (fun () -> Parser.finish ?live p);
  }

let to_array () =
  let chunks = ref [] in
  ( {
      on_words = (fun words ~len -> chunks := Array.sub words 0 len :: !chunks);
      finish = (fun () -> ());
    },
    fun () -> Array.concat (List.rev !chunks) )

(* [?compress] is accepted and ignored: every trace file is version 3. *)
let to_file ?compress:_ path =
  let w = Tracefile.open_writer path in
  {
    on_words = (fun words ~len -> Tracefile.write w words ~len);
    finish = (fun () -> ignore (Tracefile.close_writer w : int));
  }
