(* The plan server as its own process ([wireless_agg serve] with its
   default configuration on an ephemeral loopback port) and a
   closed-loop client over one connection. *)

module P = Wa_service.Protocol

type server = { pid : int; out : in_channel; port : int }

let start exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--port"; "0" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line ->
      let port = int_of_string (List.nth (String.split_on_char ':' line) 1) in
      { pid; out; port }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

(* Peak resident set of the server so far, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* CPU time used so far by a whole process (every thread, live or
   exited), in ms: utime + stime of /proc/<pid>/stat, in clock ticks
   of 10 ms (USER_HZ is 100 on Linux). *)
let process_cpu_ms pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* The command name may hold spaces; the fields after it do not.
     utime and stime are fields 14 and 15, the 12th and 13th after it. *)
  let i = String.rindex line ')' + 2 in
  let rest = String.sub line i (String.length line - i) in
  match String.split_on_char ' ' rest with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      10.0 *. float_of_int (int_of_string utime + int_of_string stime)
  | _ -> nan

let stat_buf = Bytes.create 128

(* CPU time used so far by the live threads of a process, in ms, to
   the nanosecond: the first field of each thread's schedstat.  Exited
   threads are not counted, so this only measures spans of work in
   which the process starts no thread. *)
let threads_cpu_ms pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let ns =
    Array.fold_left
      (fun acc tid ->
        match Unix.openfile (Filename.concat (Filename.concat dir tid) "schedstat") [ Unix.O_RDONLY ] 0 with
        | exception Unix.Unix_error _ -> acc
        | fd ->
            let n = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.read fd stat_buf 0 128) in
            let s = Bytes.sub_string stat_buf 0 n in
            acc + int_of_string (String.sub s 0 (String.index s ' ')))
      0 (Sys.readdir dir)
  in
  float_of_int ns /. 1e6

(* Wait for the process to exit after a shutdown request; kill it if
   it has not. *)
let reap srv ~graceful =
  if not graceful then (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (input_line srv.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr srv.out;
  ignore (Unix.waitpid [] srv.pid)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let read_line c =
  Buffer.clear c.line;
  let rec go () =
    if c.pos >= c.len then begin
      c.pos <- 0;
      c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
      if c.len = 0 then raise End_of_file
    end;
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
        Buffer.add_subbytes c.line c.buf c.pos (i - c.pos);
        c.pos <- i + 1
    | _ ->
        Buffer.add_subbytes c.line c.buf c.pos (c.len - c.pos);
        c.pos <- c.len;
        go ()
  in
  go ();
  Buffer.contents c.line

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c = { fd; buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 256 } in
  (match P.check_greeting (read_line c) with
  | Ok () -> ()
  | Error e -> failwith ("bad greeting: " ^ e));
  c

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One closed-loop round trip of a request line; the reply line. *)
let round_trip c line =
  write_all c.fd line 0;
  write_all c.fd "\n" 0;
  read_line c

let request c body =
  let line = P.request_to_line { P.id = 1; deadline_ms = None; trace = false; body } in
  match P.response_of_line (round_trip c line) with
  | Ok r -> r.P.body
  | Error e -> failwith ("bad response: " ^ e)

let cache_stats c =
  match request c P.Stats with
  | P.Stats_r st -> st.P.st_cache
  | _ -> failwith "stats: unexpected reply"

(* Shut the server down through the protocol and reap it. *)
let stop srv c =
  let graceful =
    match request c P.Shutdown with
    | P.Shutdown_ok -> true
    | _ | (exception _) -> false
  in
  Unix.close c.fd;
  reap srv ~graceful
