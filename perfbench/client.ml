(* A line-protocol client of Serve.Daemon, living in the same process as
   the daemon it talks to: the benchmark ticks the daemon and then lets
   each client pull whatever its socket holds. Sockets are non-blocking,
   so a read never waits for the daemon. *)

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes after the last complete line *)
  lines : string Queue.t;
  chunk : Bytes.t;
  mutable requests : int;  (* requests written *)
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Buffer.create 4096; lines = Queue.create (); chunk = Bytes.create 65536; requests = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Write [reqs] as one batch of lines. The daemon drains its sockets on
   every tick and requests are tiny, so the kernel buffer always takes
   the whole batch; a short write is reported, not retried. *)
let send_all c reqs =
  let line =
    String.concat "" (List.map (fun r -> Serve.Protocol.encode_request r ^ "\n") reqs)
  in
  let n = Unix.write_substring c.fd line 0 (String.length line) in
  if n <> String.length line then
    failwith (Printf.sprintf "perfbench client: short write (%d of %d bytes)" n (String.length line));
  c.requests <- c.requests + List.length reqs

let send c req = send_all c [ req ]

(* Move every complete line the socket holds into the line queue. *)
let pump c =
  let rec read_all () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.buf c.chunk 0 n;
        read_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  read_all ();
  let s = Buffer.contents c.buf in
  let n = String.length s in
  let rec split pos =
    match String.index_from_opt s pos '\n' with
    | None -> pos
    | Some nl ->
        Queue.add (String.sub s pos (nl - pos)) c.lines;
        split (nl + 1)
  in
  let rest = split 0 in
  if rest > 0 then begin
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s rest (n - rest)
  end

let next_line c = Queue.take_opt c.lines

let decode line =
  match Serve.Protocol.decode_response line with
  | Ok resp -> resp
  | Error msg -> failwith ("perfbench client: undecodable frame: " ^ msg)
