(* A domain-pool asynchronous I/O scheduler.

   Workers are plain OCaml 5 domains, each owning one bounded FIFO request
   queue guarded by a mutex + two condvars (not-empty for the worker,
   not-full for submitters).  Jobs are routed by an integer [key]: the same
   key always lands on the same worker, which is the load-bearing invariant
   — the file backend keys every request by (backend, disk), so all I/O on
   one disk runs on one domain and two requests touching the same slot are
   serialised in submission order by that worker's FIFO.

   Everything the EM cost model observes — counted I/Os, rounds, fault
   decisions, checksums, trace events — is decided on the submitting domain
   before a job is enqueued; a job is pure byte shuffling.  That is why
   async execution cannot move a single ledger number (see DESIGN.md).

   A ticket resolves exactly once, to the job's result or to the exception
   it raised, which is re-raised on the domain that [await]s the ticket; the
   in-flight gauge is decremented *before* the ticket resolves, so once
   [await] returns the pool's accounting already reflects the completion. *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a ticket = { tm : Mutex.t; tc : Condition.t; mutable state : 'a state }

(* A queued job runs its closure and resolves its own ticket, so a worker's
   queue holds plain thunks whatever the results' types. *)
type worker = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
}

type t = {
  workers : worker array;
  mutable domains : unit Domain.t array;
  capacity : int;  (* max queued jobs per worker; submit blocks beyond it *)
  in_flight : int Atomic.t;  (* submitted and not yet completed *)
  idle_m : Mutex.t;  (* completion edge for [quiesce] *)
  idle_c : Condition.t;
  mutable closed : bool;
}

let default_capacity = 64

let workers_env_var = "EM_ASYNC_WORKERS"

let default_workers () =
  match Sys.getenv_opt workers_env_var with
  | None | Some "" -> 4
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some w when w >= 1 -> w
      | _ ->
          invalid_arg
            (Printf.sprintf "Io_pool: %s must be a positive integer (got %S)"
               workers_env_var s))

let resolve t tk outcome =
  (* Order matters: the gauge must already be decremented when a waiting
     [await] wakes up, so "await returned, in_flight still > 0" can never be
     observed for the awaited request. *)
  Atomic.decr t.in_flight;
  Mutex.lock t.idle_m;
  Condition.broadcast t.idle_c;
  Mutex.unlock t.idle_m;
  Mutex.lock tk.tm;
  tk.state <- outcome;
  Condition.broadcast tk.tc;
  Mutex.unlock tk.tm

let worker_loop w =
  let running = ref true in
  while !running do
    Mutex.lock w.m;
    while Queue.is_empty w.jobs && not w.stopping do
      Condition.wait w.not_empty w.m
    done;
    if Queue.is_empty w.jobs then begin
      (* stopping && drained: queued work is never dropped on shutdown *)
      running := false;
      Mutex.unlock w.m
    end
    else begin
      let job = Queue.pop w.jobs in
      Condition.signal w.not_full;
      Mutex.unlock w.m;
      job ()
    end
  done

let create ?(workers = default_workers ()) ?(capacity = default_capacity) () =
  if workers < 1 then invalid_arg "Io_pool.create: workers must be >= 1";
  if capacity < 1 then invalid_arg "Io_pool.create: capacity must be >= 1";
  let mk_worker _ =
    {
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
    }
  in
  let pool_workers = Array.init workers mk_worker in
  let t =
    {
      workers = pool_workers;
      domains = [||];
      capacity;
      in_flight = Atomic.make 0;
      idle_m = Mutex.create ();
      idle_c = Condition.create ();
      closed = false;
    }
  in
  t.domains <- Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) pool_workers;
  t

let workers t = Array.length t.workers
let in_flight t = Atomic.get t.in_flight
let closed t = t.closed

let submit t ~key f =
  if t.closed then invalid_arg "Io_pool.submit: pool is shut down";
  let w = t.workers.(abs key mod Array.length t.workers) in
  let tk = { tm = Mutex.create (); tc = Condition.create (); state = Pending } in
  Atomic.incr t.in_flight;
  Mutex.lock w.m;
  while Queue.length w.jobs >= t.capacity && not w.stopping do
    Condition.wait w.not_full w.m
  done;
  if w.stopping then begin
    Mutex.unlock w.m;
    Atomic.decr t.in_flight;
    invalid_arg "Io_pool.submit: pool is shut down"
  end;
  let job () = resolve t tk (match f () with v -> Done v | exception e -> Failed e) in
  Queue.push job w.jobs;
  Condition.signal w.not_empty;
  Mutex.unlock w.m;
  tk

(* The ticket mutex is the happens-before edge for the worker's result. *)
let await tk =
  Mutex.lock tk.tm;
  let rec wait () =
    match tk.state with
    | Pending ->
        Condition.wait tk.tc tk.tm;
        wait ()
    | Done v ->
        Mutex.unlock tk.tm;
        v
    | Failed e ->
        Mutex.unlock tk.tm;
        raise e
  in
  wait ()

let quiesce t =
  Mutex.lock t.idle_m;
  while Atomic.get t.in_flight > 0 do
    Condition.wait t.idle_c t.idle_m
  done;
  Mutex.unlock t.idle_m

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.stopping <- true;
        Condition.broadcast w.not_empty;
        Condition.broadcast w.not_full;
        Mutex.unlock w.m)
      t.workers;
    (* Workers drain their queues before exiting, so joining also awaits
       every request that was in flight at shutdown time. *)
    Array.iter Domain.join t.domains
  end

(* ------------------------------------------------------------------ *)
(* The shared default pool.                                           *)
(* ------------------------------------------------------------------ *)

(* Domains are a scarce resource (the runtime caps them at ~128), and test
   suites create thousands of contexts, so asynchronous machines share one
   lazily-spawned pool instead of spawning domains per context.  Per-fd
   domain affinity still holds: each async backend keys its requests by a
   unique (backend, disk) pair.  The pool is joined at exit so the process
   never terminates with live worker domains. *)
let global_pool = ref None

let global () =
  match !global_pool with
  | Some t when not t.closed -> t
  | _ ->
      let t = create () in
      if !global_pool = None then at_exit (fun () -> match !global_pool with
        | Some t -> shutdown t
        | None -> ());
      global_pool := Some t;
      t

(* Fresh routing-key bases, one per async backend: disk [d] of backend [b]
   always maps to key [base_b + d], i.e. to one fixed worker. *)
let key_counter = Atomic.make 0
let fresh_key_base () = Atomic.fetch_and_add key_counter 1031
