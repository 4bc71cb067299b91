(* Set-up shared by [offline] and [serve_ingest]: capture each job's
   system trace in memory, keeping the ANALYZE-phase chunks as drained
   so later writes and sends see the chunking a live capture produces. *)

open Systrace
open Common
module Sink = Systrace_tracing.Sink

type trace = {
  job : job;
  chunks : int array array;
  words : int;
  sum : int;  (** order-sensitive checksum of the words *)
}

let mix h words len =
  let h = ref h in
  for k = 0 to len - 1 do
    h := (!h * 1_000_003) lxor Array.unsafe_get words k
  done;
  !h

(* Systrace.run_traced, from its parts, for the traced run. *)
let run_traced_spanned ~seed (j : job) keep =
  let job = j.id in
  let t = build ~job ~cfg:(system_cfg ~traced:true ~seed j.os) j in
  let parser = parser_for ~job t in
  P.set_handlers parser
    {
      P.on_inst =
        (fun addr pid kernel -> ignore (Sys.opaque_identity (Inst { addr; pid; kernel })));
      on_data =
        (fun addr pid kernel is_load bytes ->
          ignore (Sys.opaque_identity (Data { addr; pid; kernel; is_load; bytes })));
    };
  set_trace_sink ~job t (fun words len ->
      keep words len;
      Span.with_ ~job "parser.feed.capture" (fun () -> P.feed parser words ~len));
  run_to_halt ~job t;
  drain_final ~job t;
  P.finish ~live:(live_pids t) parser;
  add_parse (P.stats parser);
  P.stats parser

let capture ~seed (j : job) check =
  let acc = ref [] in
  let keep words len = acc := Array.sub words 0 len :: !acc in
  let parse =
    if !Span.enabled then run_traced_spanned ~seed j keep
    else
      (run_traced ~os:j.os ~seed ~sink:(Sink.make (fun w ~len -> keep w len))
         j.spec.Validate.programs j.spec.Validate.files)
        .parse_stats
  in
  let chunks = Array.of_list (List.rev !acc) in
  let words = Array.fold_left (fun n c -> n + Array.length c) 0 chunks in
  let sum = Array.fold_left (fun h c -> mix h c (Array.length c)) 0 chunks in
  check (words = parse.P.words) "captured words differ from the parsed count";
  expect check ~section:"capture" j [ ("words", i words); ("checksum", i sum) ];
  { job = j; chunks; words; sum }

let capture_all ~seed jobs =
  List.map
    (fun j ->
      let out = ref None in
      attempt ("capture " ^ j.label) (fun check -> out := Some (capture ~seed j check));
      match !out with
      | Some t -> t
      | None -> failwith ("set-up: capture of " ^ j.label ^ " failed"))
    jobs
