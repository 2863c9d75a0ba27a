//! The `smi-launch` process launcher.
//!
//! `smi-launch --plan plan.json` reads a [`super::ProcessPlan`], spawns one
//! OS process per plan entry (re-executing the current binary in `--child`
//! mode), bootstraps the inter-process socket mesh, runs a rooted-collective
//! workload on every rank, and reaps the children — naming the failed
//! process and its ranks, and exiting non-zero, when anything dies.
//!
//! Bootstrap runs over a line-based TCP control connection per child:
//!
//! ```text
//! child  -> launcher   hello <proc> <data_listen_addr>
//! launcher -> children peers <addr0> <addr1> ...
//! (children dial each other's data listeners; hello frames identify them)
//! child  -> launcher   wired <proc>
//! launcher -> children go
//! (workload runs)
//! child  -> launcher   done <proc>
//! launcher -> children halt          (the fabric-wide completion barrier)
//! ```
//!
//! The `done`/`halt` exchange is the cross-process completion barrier (see
//! [`crate::env::run_group`]): no child starts to end its data streams
//! until the launcher has heard `done` from every process. `halt` reaches
//! the children one at a time, so the streams end in-band, not on it: each
//! child's pumps write a fin once it has heard `halt`, and close only after
//! reading the peer's, so a child that leaves first is never read as a
//! disconnect. A child that counted a stream fault says so
//! (`smi-launch[child k]: N stream fault(s)`); a fault-free run prints no
//! such line. Fault injection
//! comes in two flavours: `--kill <proc>:<bootstrap|stream>` makes the
//! named child exit abruptly at that phase (survivors report
//! [`SmiError::PeerDisconnected`] within the blocking deadline and the
//! launcher names the dead process), while `--fault
//! <from>-<to>:<action>=<frame>` injects deterministic wire-level faults
//! (drop, duplicate, delay, sever) on a directed process-pair link via the
//! plan's [`FaultPlan`] — severed links heal through the mid-stream
//! reconnect/replay layer unless `:norestore` forbids it.
//!
//! [`SmiError::PeerDisconnected`]: crate::SmiError::PeerDisconnected

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use smi_codegen::{OpSpec, ProgramMeta};
use smi_wire::{Datatype, ReduceOp};

use super::{
    bind_data_listener, crossing_pairs, eprint_line, GroupWiring, PeerStream, ProcessPlan,
    StreamRole, TransportBackend,
};
use crate::collectives::CollectiveScheme;
use crate::env::{run_group, Bodies, SmiCtx};
use crate::params::{ReconnectPolicy, RuntimeParams};
use crate::transport::faults::{DelaySpec, FaultPlan, LinkFault, SeverSpec};
use crate::transport::socket::{
    fresh_session_id, recv_hello, send_hello, Hello, Redial, SocketListener, SocketStream,
};
use crate::transport::TransportStats;

const USAGE: &str = "usage: smi-launch --plan <plan.json> [--scheme linear|tree] [--count N] \
                     [--deadline-ms N] [--timeout-secs N] [--kill <proc>:<bootstrap|stream>] \
                     [--fault <from>-<to>:<drop|dup>=<frame>|delay=<frame>+<by>|sever=<frame>\
                     [:norestore]]...";

/// At which bootstrap phase the `--kill` target aborts itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillPhase {
    /// After its control hello, before the data mesh is wired.
    Bootstrap,
    /// Partway through the first collective of the workload.
    Stream,
}

struct Opts {
    child: bool,
    plan_path: String,
    proc_idx: usize,
    bootstrap: String,
    scheme: CollectiveScheme,
    count: u64,
    deadline_ms: u64,
    timeout_secs: u64,
    kill: Option<(usize, KillPhase)>,
    faults: Vec<LinkFault>,
}

/// Parse one `--fault` spec:
/// `<from>-<to>:<action>[:<action>...][:norestore]` where an action is
/// `drop=<frame>`, `dup=<frame>`, `delay=<frame>+<by>` or `sever=<frame>`
/// (frames are 1-based emission ordinals on the directed link).
fn parse_fault_spec(spec: &str) -> Result<LinkFault, String> {
    let mut parts = spec.split(':');
    let link = parts.next().unwrap_or_default();
    let (from, to) = link
        .split_once('-')
        .ok_or_else(|| format!("bad --fault link '{link}' (want <from>-<to>)"))?;
    let from = from
        .parse()
        .map_err(|_| format!("bad --fault sender '{from}'"))?;
    let to = to
        .parse()
        .map_err(|_| format!("bad --fault receiver '{to}'"))?;
    let mut lf = LinkFault::clean(from, to);
    let mut actions = 0usize;
    for part in parts {
        if part == "norestore" {
            lf.restore = false;
            continue;
        }
        let (kind, arg) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --fault action '{part}' (want <kind>=<frame>)"))?;
        let frame = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad --fault frame '{s}'"))
        };
        match kind {
            "drop" => lf.drop.push(frame(arg)?),
            "dup" => lf.duplicate.push(frame(arg)?),
            "delay" => {
                let (f, by) = arg
                    .split_once('+')
                    .ok_or_else(|| format!("bad --fault delay '{arg}' (want <frame>+<by>)"))?;
                lf.delay.push(DelaySpec {
                    frame: frame(f)?,
                    by: frame(by)?,
                });
            }
            "sever" => lf.sever.push(SeverSpec {
                after_frame: frame(arg)?,
            }),
            other => return Err(format!("unknown fault action '{other}'")),
        }
        actions += 1;
    }
    if actions == 0 {
        return Err(format!("--fault '{spec}' names no action"));
    }
    Ok(lf)
}

impl Opts {
    fn parse(args: Vec<String>) -> Result<Opts, String> {
        let mut o = Opts {
            child: false,
            plan_path: String::new(),
            proc_idx: usize::MAX,
            bootstrap: String::new(),
            scheme: CollectiveScheme::Linear,
            count: 256,
            deadline_ms: 3000,
            timeout_secs: 60,
            kill: None,
            faults: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut val = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
            match a.as_str() {
                "--child" => o.child = true,
                "--plan" => o.plan_path = val("--plan")?,
                "--proc" => {
                    o.proc_idx = val("--proc")?
                        .parse()
                        .map_err(|_| "bad --proc".to_string())?
                }
                "--bootstrap" => o.bootstrap = val("--bootstrap")?,
                "--scheme" => {
                    o.scheme = match val("--scheme")?.as_str() {
                        "linear" => CollectiveScheme::Linear,
                        "tree" => CollectiveScheme::Tree,
                        s => return Err(format!("unknown scheme '{s}'")),
                    }
                }
                "--count" => {
                    o.count = val("--count")?
                        .parse()
                        .map_err(|_| "bad --count".to_string())?
                }
                "--deadline-ms" => {
                    o.deadline_ms = val("--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms".to_string())?
                }
                "--timeout-secs" => {
                    o.timeout_secs = val("--timeout-secs")?
                        .parse()
                        .map_err(|_| "bad --timeout-secs".to_string())?
                }
                "--kill" => {
                    let spec = val("--kill")?;
                    let (idx, phase) = spec
                        .split_once(':')
                        .ok_or_else(|| "bad --kill (want <proc>:<phase>)".to_string())?;
                    let idx = idx.parse().map_err(|_| "bad --kill process".to_string())?;
                    let phase = match phase {
                        "bootstrap" => KillPhase::Bootstrap,
                        "stream" => KillPhase::Stream,
                        p => return Err(format!("unknown kill phase '{p}'")),
                    };
                    o.kill = Some((idx, phase));
                }
                "--fault" => o.faults.push(parse_fault_spec(&val("--fault")?)?),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if o.plan_path.is_empty() {
            return Err("--plan is required".into());
        }
        if o.child && (o.proc_idx == usize::MAX || o.bootstrap.is_empty()) {
            return Err("--child requires --proc and --bootstrap".into());
        }
        Ok(o)
    }

    fn scheme_name(&self) -> &'static str {
        match self.scheme {
            CollectiveScheme::Linear => "linear",
            CollectiveScheme::Tree => "tree",
        }
    }
}

/// Entry point of the `smi-launch` binary: parse `args` (without the
/// program name) and run launcher or child mode. Returns the process exit
/// code: `0` on success, `1` when a child failed (the failed process and
/// its ranks are named on stderr), `2` on usage/setup errors.
pub fn launch_cli(args: Vec<String>) -> i32 {
    let opts = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprint_line(&format!("smi-launch: {e}\n{USAGE}"));
            return 2;
        }
    };
    if opts.child {
        match child_run(&opts) {
            Ok(code) => code,
            Err(e) => {
                eprint_line(&format!("smi-launch[child {}]: {e}", opts.proc_idx));
                4
            }
        }
    } else {
        match launcher_run(&opts) {
            Ok(code) => code,
            Err(e) => {
                eprint_line(&format!("smi-launch: {e}"));
                2
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The op metadata of the standard workload: all four rooted collectives,
/// one port each.
fn workload_meta() -> ProgramMeta {
    ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int))
}

/// The standard self-verifying workload: bcast (root 0), reduce-add
/// (root 0), scatter (root N-1), gather (root 0), `count` elements each,
/// deterministic rank-derived data. `kill_at` makes the process abort
/// after moving that many bcast elements (fault injection).
fn workload_program(
    count: u64,
    kill_at: Option<u64>,
) -> impl Fn(SmiCtx) -> Result<(), String> + Send + Sync + Clone + 'static {
    move |ctx: SmiCtx| {
        let comm = ctx.world();
        let n = ctx.num_ranks() as i32;
        let me = ctx.rank() as i32;
        let c = count;

        let mut bc = ctx
            .open_bcast_channel::<i32>(c, 0, 0, &comm)
            .map_err(|e| format!("bcast open: {e}"))?;
        for i in 0..c as i32 {
            if kill_at == Some(i as u64) {
                std::process::exit(42);
            }
            let mut v = if me == 0 { i * 3 + 1 } else { 0 };
            bc.bcast(&mut v).map_err(|e| format!("bcast: {e}"))?;
            if v != i * 3 + 1 {
                return Err(format!("bcast elem {i}: got {v}, want {}", i * 3 + 1));
            }
        }

        let mut rd = ctx
            .open_reduce_channel::<i32>(c, 1, 0, &comm)
            .map_err(|e| format!("reduce open: {e}"))?;
        for i in 0..c as i32 {
            let contrib = me * 1000 + i;
            if let Some(v) = rd.reduce(&contrib).map_err(|e| format!("reduce: {e}"))? {
                let want: i32 = (0..n).map(|r| r * 1000 + i).sum();
                if v != want {
                    return Err(format!("reduce elem {i}: got {v}, want {want}"));
                }
            }
        }

        let sroot = (n - 1) as usize;
        let mut sc = ctx
            .open_scatter_channel::<i32>(c, 2, sroot, &comm)
            .map_err(|e| format!("scatter open: {e}"))?;
        if me as usize == sroot {
            for i in 0..c * n as u64 {
                sc.push(&(i as i32 * 2 - 7))
                    .map_err(|e| format!("scatter push: {e}"))?;
            }
        }
        for i in 0..c as i32 {
            let v = sc.pop().map_err(|e| format!("scatter pop: {e}"))?;
            let want = (me * c as i32 + i) * 2 - 7;
            if v != want {
                return Err(format!("scatter elem {i}: got {v}, want {want}"));
            }
        }

        let mut gt = ctx
            .open_gather_channel::<i32>(c, 3, 0, &comm)
            .map_err(|e| format!("gather open: {e}"))?;
        for i in 0..c as i32 {
            gt.push(&(me * 100 + i))
                .map_err(|e| format!("gather push: {e}"))?;
        }
        if me == 0 {
            for r in 0..n {
                for i in 0..c as i32 {
                    let v = gt.pop().map_err(|e| format!("gather pop: {e}"))?;
                    let want = r * 100 + i;
                    if v != want {
                        return Err(format!("gather elem {r}/{i}: got {v}, want {want}"));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bootstrap plumbing
// ---------------------------------------------------------------------------

/// Line-based control connection to the launcher.
struct BootstrapConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl BootstrapConn {
    fn connect(addr: &str, timeout: Duration) -> io::Result<BootstrapConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(BootstrapConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "launcher closed the control connection",
            ));
        }
        Ok(line.trim().to_string())
    }
}

/// Accept one data-plane connection before `deadline`.
fn accept_data(listener: &SocketListener, deadline: Instant) -> io::Result<SocketStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok(s) => {
                s.set_nonblocking(false)?;
                return Ok(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for a peer data connection",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Accept one bootstrap stream from each process in `expected` (the `hi` of
/// every crossing pair this process listens for) before `deadline`. A hello
/// that resumes, or names a process not (or no longer) expected, is
/// `InvalidData`: the group wiring indexes the plan by it.
fn accept_peers(
    listener: &SocketListener,
    mut expected: Vec<usize>,
    deadline: Instant,
    timeout: Duration,
) -> io::Result<Vec<PeerStream>> {
    let mut streams = Vec::new();
    while !expected.is_empty() {
        let mut s = accept_data(listener, deadline)?;
        s.set_read_timeout(Some(timeout))?;
        let hello = recv_hello(&mut s)?;
        let at = expected
            .iter()
            .position(|&p| p == hello.proc && !hello.resume);
        let Some(at) = at else {
            let msg = format!("bootstrap {hello:?} is from none of the peers {expected:?}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        };
        expected.swap_remove(at);
        streams.push(PeerStream {
            proc: hello.proc,
            stream: s,
            session: hello.session,
            role: StreamRole::Accept,
        });
    }
    Ok(streams)
}

/// The [`Redial`] for a peer's advertised data-listener address.
fn redial_for(backend: TransportBackend, addr: &str) -> io::Result<Redial> {
    match backend {
        TransportBackend::Tcp => Ok(Redial::Tcp(addr.to_string())),
        TransportBackend::Uds => Ok(Redial::Uds(addr.to_string())),
        TransportBackend::InMem => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "inmem backend has no addresses",
        )),
    }
}

/// Dial a peer's data listener, honouring the connect-time
/// [`ReconnectPolicy`] (peers race through bootstrap, so the first dials
/// may land before the listener exists). Attempt 0 dials immediately;
/// attempt `k >= 1` sleeps the policy's jittered backoff first, `seed`
/// decorrelating concurrent dialers.
pub(crate) fn connect_with_retry(
    redial: &Redial,
    policy: &ReconnectPolicy,
    seed: u64,
) -> io::Result<SocketStream> {
    let mut last = None;
    for i in 0..policy.max_attempts() {
        let delay = policy.delay_for(i, seed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match redial.connect() {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

// ---------------------------------------------------------------------------
// Child mode
// ---------------------------------------------------------------------------

/// How a child dials its peers' data listeners: the peers bind them while
/// every process races through bootstrap, so the first dials may find none.
const DIAL_RETRY: ReconnectPolicy = ReconnectPolicy::retry_fixed(100, Duration::from_millis(20));

fn child_run(o: &Opts) -> Result<i32, String> {
    let timeout = Duration::from_secs(o.timeout_secs);
    let plan_json =
        fs::read_to_string(&o.plan_path).map_err(|e| format!("read {}: {e}", o.plan_path))?;
    let plan = ProcessPlan::from_json(&plan_json).map_err(|e| e.to_string())?;
    let topo = plan.build_topology().map_err(|e| e.to_string())?;
    let backend = plan.parse_backend().map_err(|e| e.to_string())?;
    let procs = plan.rank_sets();
    let me = o.proc_idx;
    if me >= procs.len() {
        return Err(format!("--proc {me} out of range"));
    }

    let params = RuntimeParams {
        collective_scheme: o.scheme,
        blocking_timeout: Duration::from_millis(o.deadline_ms),
        ..RuntimeParams::default()
    };

    let (listener, my_redial) = bind_data_listener(backend, &format!("launch{me}"))
        .map_err(|e| format!("data listener: {e}"))?;
    let my_addr = my_redial.addr().to_string();
    let mut boot = BootstrapConn::connect(&o.bootstrap, timeout)
        .map_err(|e| format!("bootstrap connect {}: {e}", o.bootstrap))?;
    boot.send_line(&format!("hello {me} {my_addr}"))
        .map_err(|e| format!("bootstrap hello: {e}"))?;
    if o.kill == Some((me, KillPhase::Bootstrap)) {
        std::process::exit(42);
    }

    let line = boot
        .read_line()
        .map_err(|e| format!("awaiting peers: {e}"))?;
    let addrs: Vec<String> = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["peers", rest @ ..] => rest.iter().map(|s| s.to_string()).collect(),
        ["halt", ..] => return Err("halted by launcher during bootstrap".into()),
        other => return Err(format!("expected peers, got '{}'", other.join(" "))),
    };
    if addrs.len() != procs.len() {
        return Err(format!(
            "peers list has {} entries for {} processes",
            addrs.len(),
            procs.len()
        ));
    }

    // Data mesh: for each crossing process pair, the higher index dials the
    // lower index's listener and identifies itself — and names the session —
    // with a hello frame. The same orientation is reused by mid-stream
    // recovery: the dialer re-dials, the lower index's listener stays open.
    let deadline = Instant::now() + timeout;
    let pairs = crossing_pairs(&topo, &procs);
    let mut streams: Vec<PeerStream> = Vec::new();
    for &(lo, hi) in &pairs {
        if hi == me {
            let redial = redial_for(backend, &addrs[lo]).map_err(|e| e.to_string())?;
            let mut s = connect_with_retry(&redial, &DIAL_RETRY, lo as u64)
                .map_err(|e| format!("dial process {lo} at {}: {e}", addrs[lo]))?;
            let session = fresh_session_id();
            send_hello(&mut s, &Hello::initial(me, session))
                .map_err(|e| format!("hello to process {lo}: {e}"))?;
            streams.push(PeerStream {
                proc: lo,
                stream: s,
                session,
                role: StreamRole::Dial { redial },
            });
        }
    }
    let expected = pairs.iter().filter(|&&(lo, _)| lo == me).map(|&(_, hi)| hi);
    let accepted = accept_peers(&listener, expected.collect(), deadline, timeout);
    streams.extend(accepted.map_err(|e| format!("peer hello: {e}"))?);

    boot.send_line(&format!("wired {me}"))
        .map_err(|e| format!("bootstrap wired: {e}"))?;
    let line = boot.read_line().map_err(|e| format!("awaiting go: {e}"))?;
    if line != "go" {
        return Err(format!("expected go, got '{line}'"));
    }

    // The data listener stays open for the whole run (inside the group's
    // reconnect hub) so faulted peers can re-dial mid-stream.
    let wiring = GroupWiring {
        procs: &procs,
        idx: me,
        backend,
        streams,
        listener: Some(listener),
        faults: plan.faults.as_ref(),
    };
    let metas = vec![workload_meta(); topo.num_ranks()];
    let kill_at = (o.kill == Some((me, KillPhase::Stream))).then(|| (o.count / 4).max(1));
    let bodies = Bodies::spmd_threads(procs[me].len(), workload_program(o.count, kill_at));

    // The done/halt exchange is this process's leg of the fabric-wide
    // completion barrier: sockets stay pumped until everyone finished.
    let barrier = move || {
        let _ = boot.send_line(&format!("done {me}"));
        while boot.read_line().is_ok_and(|l| l != "halt") {}
    };
    let stats = TransportStats::default();
    let outcome = run_group(
        &topo,
        &metas,
        &params,
        &stats,
        Some(wiring),
        bodies,
        barrier,
    )
    .map_err(|e| e.to_string())?;
    if outcome.reconnects_healed > 0 {
        eprint_line(&format!(
            "smi-launch[child {me}]: healed {} mid-stream reconnect(s)",
            outcome.reconnects_healed
        ));
    }
    let faults = stats.wire.snapshot().stream_faults;
    if faults > 0 {
        eprint_line(&format!("smi-launch[child {me}]: {faults} stream fault(s)"));
    }

    let mut failed = false;
    for (rank, res) in outcome.results {
        if let Err(e) = res {
            eprint_line(&format!("smi-launch[child {me}]: rank {rank} failed: {e}"));
            failed = true;
        }
    }
    Ok(if failed { 3 } else { 0 })
}

// ---------------------------------------------------------------------------
// Launcher mode
// ---------------------------------------------------------------------------

/// Control-plane events parsed by the per-child reader threads.
enum Event {
    Hello(usize, String, TcpStream),
    Wired(usize),
    Done(usize),
    Closed,
}

fn reader_thread(stream: TcpStream, tx: mpsc::Sender<Event>) {
    let mut writer = Some(stream.try_clone().ok());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Event::Closed);
                return;
            }
            Ok(_) => {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let ev = match fields.as_slice() {
                    ["hello", idx, addr] => idx.parse().ok().and_then(|i| {
                        writer
                            .take()
                            .flatten()
                            .map(|w| Event::Hello(i, addr.to_string(), w))
                    }),
                    ["wired", idx] => idx.parse().ok().map(Event::Wired),
                    ["done", idx] => idx.parse().ok().map(Event::Done),
                    _ => None,
                };
                if let Some(ev) = ev {
                    if tx.send(ev).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

/// Describe a child's exit status, naming the signal when one killed it.
fn status_desc(st: &ExitStatus) -> String {
    match st.code() {
        Some(c) => format!("exit code {c}"),
        None => match st.signal() {
            Some(sig) => format!("killed by signal {sig}"),
            None => "killed by signal".to_string(),
        },
    }
}

fn launcher_run(o: &Opts) -> Result<i32, String> {
    let plan_json =
        fs::read_to_string(&o.plan_path).map_err(|e| format!("read {}: {e}", o.plan_path))?;
    let mut plan = ProcessPlan::from_json(&plan_json).map_err(|e| e.to_string())?;
    plan.build_topology().map_err(|e| e.to_string())?;
    let backend = plan.parse_backend().map_err(|e| e.to_string())?;
    if backend == TransportBackend::InMem {
        return Err("inmem backend needs no launcher; use the in-process runners".into());
    }
    let nproc = plan.processes.len();
    for lf in &o.faults {
        if lf.from >= nproc || lf.to >= nproc || lf.from == lf.to {
            return Err(format!(
                "--fault link {}-{} outside the plan's {nproc} processes",
                lf.from, lf.to
            ));
        }
    }

    // `--fault` specs merge into the plan's fault schedule; children read
    // the merged plan, so the injected faults reach every process the same
    // way plan-embedded ones do.
    let mut merged_plan_path: Option<PathBuf> = None;
    let child_plan_path = if o.faults.is_empty() {
        o.plan_path.clone()
    } else {
        plan.faults
            .get_or_insert_with(FaultPlan::default)
            .links
            .extend(o.faults.iter().cloned());
        let path =
            std::env::temp_dir().join(format!("smi-launch-plan-{}.json", std::process::id()));
        fs::write(&path, plan.to_json()).map_err(|e| format!("write merged plan: {e}"))?;
        merged_plan_path = Some(path.clone());
        path.display().to_string()
    };

    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bootstrap listener: {e}"))?;
    let baddr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children: Vec<Child> = Vec::with_capacity(nproc);
    for i in 0..nproc {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .arg("--plan")
            .arg(&child_plan_path)
            .arg("--proc")
            .arg(i.to_string())
            .arg("--bootstrap")
            .arg(&baddr)
            .arg("--scheme")
            .arg(o.scheme_name())
            .arg("--count")
            .arg(o.count.to_string())
            .arg("--deadline-ms")
            .arg(o.deadline_ms.to_string())
            .arg("--timeout-secs")
            .arg(o.timeout_secs.to_string());
        if let Some((idx, phase)) = o.kill {
            let phase = match phase {
                KillPhase::Bootstrap => "bootstrap",
                KillPhase::Stream => "stream",
            };
            cmd.arg("--kill").arg(format!("{idx}:{phase}"));
        }
        let child = cmd.spawn().map_err(|e| format!("spawn child {i}: {e}"))?;
        children.push(child);
    }

    let (tx, rx) = mpsc::channel::<Event>();
    let deadline = Instant::now() + Duration::from_secs(o.timeout_secs);
    let mut writers: Vec<Option<TcpStream>> = (0..nproc).map(|_| None).collect();
    let mut addrs: Vec<Option<String>> = vec![None; nproc];
    let mut wired = vec![false; nproc];
    let mut done = vec![false; nproc];
    let mut accepted = 0usize;
    let mut peers_sent = false;
    let mut go_sent = false;
    let mut failure: Option<String> = None;

    let broadcast = |writers: &mut [Option<TcpStream>], msg: &str| {
        for w in writers.iter_mut().flatten() {
            let _ = writeln!(w, "{msg}");
            let _ = w.flush();
        }
    };

    while !done.iter().all(|&d| d) {
        if Instant::now() >= deadline {
            failure = Some("timed out waiting for children".into());
            break;
        }
        while accepted < nproc {
            match listener.accept() {
                Ok((s, _)) => {
                    let tx = tx.clone();
                    std::thread::spawn(move || reader_thread(s, tx));
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("bootstrap accept: {e}")),
            }
        }
        let mut early_exit = None;
        for (i, c) in children.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            if let Ok(Some(st)) = c.try_wait() {
                early_exit = Some(format!(
                    "process {i} hosting ranks {:?} died before completion ({})",
                    plan.processes[i].ranks,
                    status_desc(&st)
                ));
                break;
            }
        }
        if let Some(msg) = early_exit {
            failure = Some(msg);
            break;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Hello(i, addr, w)) if i < nproc => {
                addrs[i] = Some(addr);
                writers[i] = Some(w);
                if !peers_sent && addrs.iter().all(|a| a.is_some()) {
                    let list: Vec<String> =
                        addrs.iter().map(|a| a.clone().expect("all set")).collect();
                    broadcast(&mut writers, &format!("peers {}", list.join(" ")));
                    peers_sent = true;
                }
            }
            Ok(Event::Wired(i)) if i < nproc => {
                wired[i] = true;
                if !go_sent && wired.iter().all(|&w| w) {
                    broadcast(&mut writers, "go");
                    go_sent = true;
                }
            }
            Ok(Event::Done(i)) if i < nproc => done[i] = true,
            Ok(Event::Closed) => { /* matched with try_wait next loop */ }
            Ok(_) => { /* out-of-range index: ignore */ }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                failure.get_or_insert_with(|| "all control connections lost".into());
                break;
            }
        }
    }

    // Completion barrier release — or, on failure, the signal that lets
    // survivors tear down and report their own PeerDisconnected errors.
    broadcast(&mut writers, "halt");

    // Reap: give children a grace window to exit on their own (survivors
    // need up to a blocking deadline to notice a dead peer), then kill.
    let grace = Duration::from_millis(o.deadline_ms * 3 + 2000);
    let grace_deadline = Instant::now() + grace;
    let mut statuses: Vec<Option<ExitStatus>> = vec![None; nproc];
    while statuses.iter().any(|s| s.is_none()) {
        for (i, c) in children.iter_mut().enumerate() {
            if statuses[i].is_none() {
                if let Ok(Some(st)) = c.try_wait() {
                    statuses[i] = Some(st);
                }
            }
        }
        if statuses.iter().all(|s| s.is_some()) {
            break;
        }
        if Instant::now() >= grace_deadline {
            for (i, c) in children.iter_mut().enumerate() {
                if statuses[i].is_none() {
                    let _ = c.kill();
                    statuses[i] = c.wait().ok();
                    failure.get_or_insert_with(|| {
                        format!(
                            "process {i} hosting ranks {:?} hung and was killed",
                            plan.processes[i].ranks
                        )
                    });
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    for (i, st) in statuses.iter().enumerate() {
        match st {
            Some(st) if st.success() => {}
            st => {
                let desc = st
                    .as_ref()
                    .map(status_desc)
                    .unwrap_or_else(|| "no exit status".into());
                failure.get_or_insert_with(|| {
                    format!(
                        "process {i} hosting ranks {:?} failed ({desc})",
                        plan.processes[i].ranks
                    )
                });
            }
        }
    }

    if let Some(path) = merged_plan_path {
        let _ = fs::remove_file(path);
    }

    if let Some(msg) = failure {
        eprint_line(&format!("smi-launch: {msg}"));
        return Ok(1);
    }
    println!(
        "smi-launch: {nproc} processes × {} ranks completed over {} ({} scheme, {} elements/collective)",
        plan.processes.iter().map(|p| p.ranks.len()).sum::<usize>(),
        backend.name(),
        o.scheme_name(),
        o.count
    );
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse() {
        let lf = parse_fault_spec("1-0:drop=3:dup=5:delay=7+2:sever=9:norestore").unwrap();
        assert_eq!((lf.from, lf.to), (1, 0));
        assert_eq!(lf.drop, vec![3]);
        assert_eq!(lf.duplicate, vec![5]);
        assert_eq!(lf.delay, vec![DelaySpec { frame: 7, by: 2 }]);
        assert_eq!(lf.sever, vec![SeverSpec { after_frame: 9 }]);
        assert!(!lf.restore);
        assert!(parse_fault_spec("0-1:sever=40").unwrap().restore);
        assert!(parse_fault_spec("nonsense").is_err());
        assert!(parse_fault_spec("1-0").is_err());
        assert!(parse_fault_spec("1-0:norestore").is_err());
        assert!(parse_fault_spec("1-0:explode=3").is_err());
        assert!(parse_fault_spec("1-0:delay=3").is_err());
    }

    #[test]
    fn status_desc_names_signals() {
        assert_eq!(status_desc(&ExitStatus::from_raw(9)), "killed by signal 9");
        assert_eq!(status_desc(&ExitStatus::from_raw(2 << 8)), "exit code 2");
    }

    #[test]
    fn connect_with_retry_attempt_zero_never_sleeps() {
        // Huge backoff, but the listener is already up: attempt 0 dials
        // immediately, so success must not wait out the backoff.
        let (listener, redial) = bind_data_listener(TransportBackend::Uds, "cwr0").unwrap();
        let policy = ReconnectPolicy::retry_fixed(3, Duration::from_secs(30));
        let t0 = Instant::now();
        let s = connect_with_retry(&redial, &policy, 1).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(s);
        drop(listener);
    }

    #[test]
    fn connect_with_retry_counts_attempts() {
        // Nowhere to connect: Fail makes exactly one attempt (no sleep at
        // all); Retry{3} makes three, sleeping a jittered [20, 40] ms
        // before each of attempts 1 and 2.
        let redial = Redial::Uds("/nonexistent/smi-cwr-test.sock".into());
        let t0 = Instant::now();
        assert!(connect_with_retry(&redial, &ReconnectPolicy::Fail, 1).is_err());
        assert!(t0.elapsed() < Duration::from_secs(1));
        let policy = ReconnectPolicy::retry_fixed(3, Duration::from_millis(40));
        let t0 = Instant::now();
        assert!(connect_with_retry(&redial, &policy, 1).is_err());
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
    }

    #[test]
    fn connect_with_retry_succeeds_once_listener_appears() {
        let path = super::super::fresh_uds_path("cwr-late");
        let redial = Redial::Uds(path.display().to_string());
        let binder = {
            let path = path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                let (listener, _) = SocketListener::bind_uds(path).unwrap();
                listener.accept().unwrap()
            })
        };
        let policy = ReconnectPolicy::retry_fixed(200, Duration::from_millis(10));
        let s = connect_with_retry(&redial, &policy, 9).unwrap();
        drop(s);
        let _ = binder.join();
    }

    /// A bootstrap dial whose hello names a process this one does not
    /// expect (out of the plan's range, or one already wired) is a typed
    /// error, never a stream the wiring would index the plan by.
    #[test]
    fn bootstrap_accepts_only_expected_peers_once() {
        let deadline = || Instant::now() + Duration::from_secs(10);
        let timeout = Duration::from_secs(10);
        for (tag, hellos, expected) in [
            ("bad-proc", vec![Hello::initial(1 << 20, 7)], vec![1]),
            (
                "twice",
                vec![Hello::initial(1, 7), Hello::initial(1, 8)],
                vec![1, 2],
            ),
            (
                "resume",
                vec![Hello {
                    resume: true,
                    ..Hello::initial(1, 7)
                }],
                vec![1],
            ),
        ] {
            let (listener, redial) = bind_data_listener(TransportBackend::Uds, tag).unwrap();
            let dials: Vec<SocketStream> = hellos
                .iter()
                .map(|h| {
                    let mut s = redial.connect().unwrap();
                    send_hello(&mut s, h).unwrap();
                    s
                })
                .collect();
            let err = accept_peers(&listener, expected, deadline(), timeout)
                .err()
                .unwrap_or_else(|| panic!("{tag}: a bad hello was accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}: {err}");
            drop(dials);
        }
        // The expected peers, each once and in any order, are accepted.
        let (listener, redial) = bind_data_listener(TransportBackend::Uds, "good").unwrap();
        let _dials: Vec<SocketStream> = [2, 1]
            .into_iter()
            .map(|p| {
                let mut s = redial.connect().unwrap();
                send_hello(&mut s, &Hello::initial(p, 40 + p as u64)).unwrap();
                s
            })
            .collect();
        let streams = accept_peers(&listener, vec![1, 2], deadline(), timeout).unwrap();
        let got: Vec<(usize, u64)> = streams.iter().map(|p| (p.proc, p.session)).collect();
        assert_eq!(got, [(2, 42), (1, 41)]);
    }
}
