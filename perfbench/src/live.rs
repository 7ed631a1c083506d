//! `live-loopback`: repeated 64 MiB transfers over one two-subflow MPTCP
//! connection on lossless localhost UDP. The serving and connecting sides
//! are two threads of this process, each running the wall-clock
//! [`Reactor`] over its own [`UdpTransport`]. Traffic crosses the loopback
//! interface, not a real link.

use crate::{allocs, counting_telemetry, median, peak_rss_kb, quantile, ratio, thread_cpu_s};
use crate::{Args, Report};
use emptcp_live::{ChaosPath, ClockSource, ConnWorker, Reactor, Transport, UdpTransport};
use emptcp_mptcp::{MpConnection, Role};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{Segment, TcpConfig};
use emptcp_telemetry::Telemetry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NAME: &str = "live-loopback";
const SIZE: u64 = 64 << 20;
const KEY: &str = "transfer-64MiB";
/// Path `i` of the serving side binds `SERVER_PORT + i`, of the
/// connecting side `CLIENT_PORT + i`. Clear of the repository's tests
/// (46200–46231, 47310, 47320) and the CLI defaults (46100, 46400).
const SERVER_PORT: u16 = 47600;
const CLIENT_PORT: u16 = 47610;
/// Ports of the set-up samples taken between transfers.
const SPARE_SERVER_PORT: u16 = 47620;
const SPARE_CLIENT_PORT: u16 = 47630;
const SETUP_REPEATS: usize = 21;
/// A transfer that has not finished by then counts as failed.
const TRANSFER_LIMIT: SimDuration = SimDuration::from_secs(20);
/// Between transfers, a socket is drained once it stays empty this long.
const QUIET: Duration = Duration::from_millis(5);

fn paths() -> Vec<ChaosPath> {
    (0..2)
        .map(|_| ChaosPath::new(0.0, SimDuration::ZERO, 0))
        .collect()
}

fn localhost(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Poll `t` until `want` frames arrived or a second passed.
fn await_frames(t: &mut impl Transport, want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut got = 0;
    while got < want && Instant::now() < deadline {
        match t.poll_recv(SimTime::ZERO) {
            Some(_) => got += 1,
            None => std::thread::yield_now(),
        }
    }
    got == want
}

/// Bind both sides and rendezvous: the connecting side knows the server's
/// ports; the server learns the client's from one probe frame per path,
/// and answers each so both sides have seen the other on every path.
fn bind_pair(
    seed: u64,
    server_port: u16,
    client_port: u16,
) -> Result<(UdpTransport, UdpTransport), String> {
    let bind = |port: u16, seed: u64| {
        UdpTransport::bind(port, paths(), seed)
            .map_err(|e| format!("binding UDP ports {port}-{}: {e}", port + 1))
    };
    let mut server = bind(server_port, seed)?;
    let mut client = bind(client_port, seed ^ 0x5eed)?;
    let probe = Segment::empty(SimTime::ZERO);
    for path in 0..2u8 {
        client.set_peer(path as usize, localhost(server_port + path as u16));
        client.send(SimTime::ZERO, 0, path, &probe);
    }
    if !await_frames(&mut server, 2) || !server.all_peers_known() {
        return Err("rendezvous: the server did not hear both paths".to_string());
    }
    for path in 0..2u8 {
        server.send(SimTime::ZERO, 0, path, &probe);
    }
    if !await_frames(&mut client, 2) {
        return Err("rendezvous: the client did not hear both paths".to_string());
    }
    Ok((server, client))
}

/// A [`Transport`] wrapper timing every send and receive poll.
struct Timed<T> {
    inner: T,
    send_ns: u64,
    recv_ns: u64,
    polls: u64,
    empty_polls: u64,
}

impl<T: Transport> Transport for Timed<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        let start = Instant::now();
        self.inner.send(now, from, path, seg);
        self.send_ns += start.elapsed().as_nanos() as u64;
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        let start = Instant::now();
        let got = self.inner.poll_recv(now);
        self.recv_ns += start.elapsed().as_nanos() as u64;
        self.polls += 1;
        self.empty_polls += got.is_none() as u64;
        got
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.inner.next_wakeup()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        self.inner.paths_mut()
    }
}

/// Counters of one side, read before and after each transfer.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    iterations: u64,
    arrivals: u64,
    sent: u64,
    would_block: u64,
    send_ns: u64,
    recv_ns: u64,
    polls: u64,
    empty_polls: u64,
    cpu_s: f64,
    allocs: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            iterations: self.iterations - before.iterations,
            arrivals: self.arrivals - before.arrivals,
            sent: self.sent - before.sent,
            would_block: self.would_block - before.would_block,
            send_ns: self.send_ns - before.send_ns,
            recv_ns: self.recv_ns - before.recv_ns,
            polls: self.polls - before.polls,
            empty_polls: self.empty_polls - before.empty_polls,
            cpu_s: self.cpu_s - before.cpu_s,
            allocs: self.allocs - before.allocs,
        }
    }
}

/// Access to the socket counters under an optional timing wrapper.
trait Side: Transport + Send {
    fn counters(&self) -> Counters;
}

fn udp_counters(t: &UdpTransport) -> Counters {
    Counters {
        sent: t.datagrams_sent,
        // Paths are lossless, so every frame shaped away is a full socket
        // buffer (WouldBlock) charged as loss.
        would_block: t.frames_shaped_away,
        ..Counters::default()
    }
}

impl Side for UdpTransport {
    fn counters(&self) -> Counters {
        udp_counters(self)
    }
}

impl Side for Timed<UdpTransport> {
    fn counters(&self) -> Counters {
        Counters {
            send_ns: self.send_ns,
            recv_ns: self.recv_ns,
            polls: self.polls,
            empty_polls: self.empty_polls,
            ..udp_counters(&self.inner)
        }
    }
}

fn snapshot<T: Side>(r: &Reactor<T>) -> Counters {
    let stats = r.stats();
    Counters {
        iterations: stats.iterations,
        arrivals: stats.arrivals,
        cpu_s: thread_cpu_s(),
        allocs: allocs(),
        ..r.transport.counters()
    }
}

/// What one side saw of one transfer.
#[derive(Clone, Copy, Debug)]
struct Transfer {
    /// Delivered (connecting side) or cumulatively acknowledged (serving
    /// side) bytes, in total and per interface.
    bytes: u64,
    wifi: u64,
    cellular: u64,
    /// Seconds from the common start to the side's completion.
    wall_s: f64,
    counters: Counters,
}

/// State both sides share across transfers.
struct Shared {
    barrier: Barrier,
    stop: AtomicBool,
    server_done: AtomicBool,
}

fn connection(role: Role, telemetry: &Telemetry, now: SimTime) -> MpConnection {
    let mut conn = MpConnection::new(role, TcpConfig::default());
    conn.add_subflow(now, IfaceKind::Wifi);
    conn.add_subflow(now, IfaceKind::CellularLte);
    conn.set_telemetry(telemetry.scope(0));
    if role == Role::Server {
        conn.write(SIZE);
    }
    conn
}

/// Read and discard whatever is still in flight to this side.
fn drain(t: &mut impl Transport) {
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < QUIET {
        if t.poll_recv(SimTime::ZERO).is_some() {
            quiet_since = Instant::now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Run transfers on one side until the connecting side stops: each on a
/// fresh connection, both sides starting together, sockets drained
/// between transfers so no frame of one reaches the next. On the
/// connecting side, `before_transfer(n)` runs before transfer `n` and
/// says whether to make it.
fn side_loop<T: Side>(
    role: Role,
    reactor: &mut Reactor<T>,
    shared: &Shared,
    telemetry: &Telemetry,
    mut before_transfer: impl FnMut(usize) -> bool,
) -> Vec<Transfer> {
    let mut done = Vec::new();
    loop {
        if role == Role::Client {
            shared.server_done.store(false, Ordering::SeqCst);
            shared
                .stop
                .store(!before_transfer(done.len()), Ordering::SeqCst);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            return done;
        }
        // One clock per side for all transfers: the transport's egress
        // queue keeps its timeline, so the clock must never restart.
        let now = reactor.clock.now();
        reactor.workers.clear();
        reactor.register(ConnWorker::new(connection(role, telemetry, now), 0));
        reactor.wall_limit = now + TRANSFER_LIMIT;
        shared.barrier.wait();
        let before = snapshot(reactor);
        let start = Instant::now();
        let (wall_s, counters) = if role == Role::Server {
            reactor.run_until(|w| w[0].conn.bytes_acked() >= SIZE);
            let wall_s = start.elapsed().as_secs_f64();
            shared.server_done.store(true, Ordering::SeqCst);
            (wall_s, snapshot(reactor).since(before))
        } else {
            reactor.run_until(|w| w[0].conn.bytes_delivered() >= SIZE);
            let wall_s = start.elapsed().as_secs_f64();
            let counters = snapshot(reactor).since(before);
            // Keep answering until the server has heard every ACK.
            reactor.run_until(|_| shared.server_done.load(Ordering::SeqCst));
            (wall_s, counters)
        };
        let conn = &reactor.workers[0].conn;
        let (bytes, wifi, cellular) = if role == Role::Server {
            (
                conn.bytes_acked(),
                conn.acked_by_iface(IfaceKind::Wifi),
                conn.acked_by_iface(IfaceKind::CellularLte),
            )
        } else {
            (
                conn.bytes_delivered(),
                conn.delivered_by_iface(IfaceKind::Wifi),
                conn.delivered_by_iface(IfaceKind::CellularLte),
            )
        };
        done.push(Transfer {
            bytes,
            wifi,
            cellular,
            wall_s,
            counters,
        });
        shared.barrier.wait();
        drain(&mut reactor.transport);
    }
}

/// Run transfers over a bound pair: the serving side on a second thread,
/// the connecting side on this one. Returns `(client, server)` views.
fn transfers<T: Side>(
    server: T,
    client: T,
    telemetry: &Telemetry,
    before_transfer: impl FnMut(usize) -> bool,
) -> Vec<(Transfer, Transfer)> {
    let shared = Shared {
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        server_done: AtomicBool::new(false),
    };
    let mut server = Reactor::new(ClockSource::wall(), server);
    let mut client = Reactor::new(ClockSource::wall(), client);
    std::thread::scope(|s| {
        let serving =
            s.spawn(|| side_loop(Role::Server, &mut server, &shared, telemetry, |_| true));
        let connecting = side_loop(
            Role::Client,
            &mut client,
            &shared,
            telemetry,
            before_transfer,
        );
        let served = serving.join().expect("serving thread panicked");
        connecting.into_iter().zip(served).collect()
    })
}

/// Check one transfer and count it as an op.
fn check(out: &mut Report, client: &Transfer, server: &Transfer) {
    let problem = if client.bytes != SIZE || server.bytes != SIZE {
        Some(format!(
            "incomplete transfer: delivered {} and acknowledged {} of {SIZE} bytes",
            client.bytes, server.bytes
        ))
    } else if client.wifi == 0 || client.cellular == 0 {
        Some(format!(
            "a subflow carried nothing: wifi {} cellular {}",
            client.wifi, client.cellular
        ))
    } else {
        None
    };
    out.digests.insert(
        KEY.to_string(),
        format!("bytes={} complete={}", client.bytes, problem.is_none()),
    );
    out.op(problem);
}

/// Bind and rendezvous [`SETUP_REPEATS`] times; keep the last pair.
fn setup(out: &mut Report, seed: u64) -> Option<(Vec<f64>, UdpTransport, UdpTransport)> {
    let mut times = Vec::new();
    let mut pair = None;
    for _ in 0..SETUP_REPEATS {
        drop(pair.take());
        let start = Instant::now();
        match bind_pair(seed, SERVER_PORT, CLIENT_PORT) {
            Ok(p) => pair = Some(p),
            Err(e) => {
                out.fail(e);
                return None;
            }
        }
        times.push(start.elapsed().as_secs_f64());
    }
    let (server, client) = pair.expect("at least one set-up");
    Some((times, server, client))
}

/// End-to-end metrics, nothing attached.
pub fn measure(args: &Args) -> Report {
    let mut out = Report::new(NAME);
    let Some((mut setup_s, server, client)) = setup(&mut out, args.seed) else {
        return out;
    };
    // More set-up samples, one between every two transfers, on spare ports.
    let mut spare_setup = Vec::new();
    let start = Instant::now();
    let runs = transfers(server, client, &Telemetry::disabled(), |n| {
        let t = Instant::now();
        if bind_pair(args.seed, SPARE_SERVER_PORT, SPARE_CLIENT_PORT).is_ok() {
            spare_setup.push(t.elapsed().as_secs_f64());
        }
        n == 0 || start.elapsed() < args.budget()
    });
    setup_s.extend(spare_setup);
    let mut ms = Vec::new();
    for (c, s) in &runs {
        check(&mut out, c, s);
        ms.push(c.wall_s * 1e3);
        out.wall(KEY, c.wall_s * 1e3);
    }
    let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let bytes: u64 = runs.iter().map(|(c, _)| c.bytes).sum();
    let n = ms.len();
    out.metric("setup_s", median(&setup_s), "s", setup_s.len());
    out.metric("ops_per_s", n as f64 / total_s, "1/s", n);
    out.metric("op_ms_p50", median(&ms), "ms", n);
    out.metric("op_ms_p90", quantile(&ms, 0.9), "ms", n);
    out.metric("goodput_MBps", bytes as f64 / total_s / 1e6, "MB/s", n);
    // One connection per side is alive at a time.
    out.metric("rss_kb_per_conn", peak_rss_kb() / 2.0, "kB", 1);
    out.metric("transfer_s_p50", median(&ms) / 1e3, "s", n);
    out
}

const TRACED_TRANSFERS: usize = 3;

/// Per-layer metrics: transfers through the timing transport under the
/// counting allocator, then transfers with the counting sink on both
/// connections as well.
pub fn trace(args: &Args) -> Report {
    let mut out = Report::new(NAME);
    let Some((_, server, client)) = setup(&mut out, args.seed) else {
        return out;
    };
    let timed = |inner| Timed {
        inner,
        send_ns: 0,
        recv_ns: 0,
        polls: 0,
        empty_polls: 0,
    };
    let runs = transfers(timed(server), timed(client), &Telemetry::disabled(), |n| {
        n < TRACED_TRANSFERS
    });
    let mut sum = Counters::default();
    let (mut wall_s, mut moved) = (0.0, 0u64);
    for (c, s) in &runs {
        check(&mut out, c, s);
        wall_s += c.wall_s;
        moved += c.bytes;
        for k in [c.counters, s.counters] {
            sum.iterations += k.iterations;
            sum.arrivals += k.arrivals;
            sum.sent += k.sent;
            sum.would_block += k.would_block;
            sum.send_ns += k.send_ns;
            sum.recv_ns += k.recv_ns;
            sum.polls += k.polls;
            sum.empty_polls += k.empty_polls;
            sum.cpu_s += k.cpu_s;
        }
        // The allocation counter is process-wide: one side's window
        // already covers both threads.
        sum.allocs += c.counters.allocs;
    }
    let n = runs.len().max(1) as f64;
    let k = runs.len();
    let mib = moved as f64 / (1u64 << 20) as f64;
    out.metric("live.send_s", sum.send_ns as f64 * 1e-9 / n, "s", k);
    out.metric("live.recv_s", sum.recv_ns as f64 * 1e-9 / n, "s", k);
    out.metric(
        "live.empty_poll_ratio",
        ratio(sum.empty_polls as f64, sum.polls as f64),
        "ratio",
        k,
    );
    out.metric(
        "live.iterations_per_arrival",
        ratio(sum.iterations as f64, sum.arrivals as f64),
        "ratio",
        k,
    );
    out.metric("live.thread_cpu_s", sum.cpu_s / n, "s", k);
    out.metric(
        "live.idle_share",
        1.0 - ratio(sum.cpu_s, 2.0 * wall_s),
        "ratio",
        k,
    );
    out.metric(
        "live.would_block_drops",
        sum.would_block as f64 / n,
        "count",
        k,
    );
    out.metric(
        "live.datagrams_per_mib",
        ratio(sum.sent as f64, mib),
        "count/MiB",
        k,
    );
    out.metric(
        "alloc.per_datagram",
        ratio(sum.allocs as f64, sum.sent as f64),
        "count/datagram",
        k,
    );

    let Some((_, server, client)) = setup(&mut out, args.seed) else {
        return out;
    };
    let (sink, telemetry) = counting_telemetry();
    let runs = transfers(server, client, &telemetry, |n| n < TRACED_TRANSFERS);
    let (mut sent, mut moved) = (0u64, 0u64);
    for (c, s) in &runs {
        check(&mut out, c, s);
        out.traced_wall(KEY, c.wall_s * 1e3);
        sent += c.counters.sent + s.counters.sent;
        moved += c.bytes;
    }
    let counts = crate::take_counts(&sink);
    let k = runs.len();
    let mib = moved as f64 / (1u64 << 20) as f64;
    out.metric(
        "tcp.retransmits_per_pkt",
        ratio(counts.retransmits as f64, sent as f64),
        "count/pkt",
        k,
    );
    out.metric(
        "tcp.rto_fired_per_pkt",
        ratio(counts.rto_fired as f64, sent as f64),
        "count/pkt",
        k,
    );
    out.metric(
        "mptcp.sched_picks_per_mib",
        ratio(counts.sched_picks as f64, mib),
        "count/MiB",
        k,
    );
    crate::micro::layer_costs(&mut out);
    out
}
