(* Machine-readable benchmark results: BENCH_micro.json at the repo root,
   a JSON array of {target, name, unit, value, jobs} objects — one line
   per benchmark — so the perf trajectory is tracked across PRs.

   [target] names the experiment that produced the entry ("interp",
   "stream", "table2"); [jobs] is the number of worker domains actually
   in effect (1 for single-domain measurements).  Benchmark names carry
   no run-dependent detail (no word counts, no job counts) so the same
   measurement always lands on the same key.

   Writers merge: an invocation replaces the entries it re-measured
   (matched by target + name) and keeps the rest, so `main.exe interp`
   and `main.exe table2 --timing` both contribute to the same file.
   [save] sorts by (target, name), so regenerating the file is
   diff-stable whatever order the experiments ran in.  The file is our
   own output, so the loader only has to parse the exact format [save]
   writes. *)

type entry = {
  target : string;
  name : string;
  unit_ : string;
  value : float;
  jobs : int;
}

let entry ?(jobs = 1) ~target ~name ~unit_ value =
  { target; name; unit_; value; jobs }

(* The repo root is the nearest ancestor of the cwd with a dune-project;
   falls back to the cwd (e.g. when installed elsewhere). *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Sys.getcwd () else up parent
  in
  up (Sys.getcwd ())

(* `main.exe --out FILE` redirects results to a named file instead of the
   default BENCH_micro.json — so CI smoke runs or side experiments don't
   clobber the tracked perf trajectory. *)
let out_override = ref None
let set_path file = out_override := Some file

let path () =
  match !out_override with
  | Some file -> file
  | None -> Filename.concat (repo_root ()) "BENCH_micro.json"

let render_entry e =
  (* %S escaping covers quotes and backslashes; benchmark names contain no
     control characters, so this stays valid JSON. *)
  Printf.sprintf
    "  {\"target\": %S, \"name\": %S, \"unit\": %S, \"value\": %.6g, \
     \"jobs\": %d}"
    e.target e.name e.unit_ e.value e.jobs

let parse_line line =
  match
    Scanf.sscanf line
      " {\"target\": %S, \"name\": %S, \"unit\": %S, \"value\": %f, \
       \"jobs\": %d"
      (fun target name unit_ value jobs ->
        { target; name; unit_; value; jobs })
  with
  | e -> Some e
  | exception _ -> None

let load file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let entries = ref [] in
    (try
       while true do
         match parse_line (input_line ic) with
         | Some e -> entries := e :: !entries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries
  end

let save file entries =
  let entries =
    List.sort
      (fun a b ->
        match compare a.target b.target with
        | 0 -> compare a.name b.name
        | c -> c)
      entries
  in
  let oc = open_out file in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.map render_entry entries));
  output_string oc "\n]\n";
  close_out oc

(* Merge [entries] into the results file: re-measured (target, name) keys
   are replaced, the rest kept; the saved file is sorted either way. *)
let record entries =
  let file = path () in
  let old = load file in
  let fresh = List.map (fun e -> (e.target, e.name)) entries in
  let kept =
    List.filter (fun e -> not (List.mem (e.target, e.name) fresh)) old
  in
  save file (kept @ entries);
  Printf.printf "  wrote %d benchmark result(s) to %s\n%!"
    (List.length entries) file

(* [find entries target name] — gate checks and derived metrics. *)
let find entries target name =
  List.find_opt (fun e -> e.target = target && e.name = name) entries
