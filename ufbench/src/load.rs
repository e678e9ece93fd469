//! Load generators: the open-loop CHECK stream and its saturation
//! counterpart (each with optional durable `CATALOG ADD`/`DROP` churn on a
//! second connection), and sequential adds. One client process, at most two
//! threads and two connections.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ufilter_core::wire::escape;

use crate::inputs::{ChurnAdd, Rng};
use crate::server::{Conn, Server};
use crate::stats::quantile;

/// A phase whose generator ran later than this at the median measured the
/// client, not the server.
pub const LAG_LIMIT_US: f64 = 500.0;

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Per answered request, latency from its due send time, in µs.
    pub lat_us: Vec<f64>,
    /// Reply lines, in request order.
    pub replies: Vec<String>,
    /// Requests sent.
    pub sent: usize,
    /// Seconds from the phase start to the last reply.
    pub elapsed_s: f64,
    /// Generator lag (actual minus due send time, over requests whose
    /// connection was idle when they fell due): median and maximum, µs.
    pub lag_p50_us: f64,
    pub lag_max_us: f64,
    /// Whether due-but-unsent requests kept piling up over the phase.
    pub backlog_growing: bool,
    /// Durable add latencies (send to ack), ms, with the add's depth.
    pub adds: Vec<(f64, usize)>,
    /// Adds or drops answered with anything but the expected ack.
    pub add_failures: usize,
}

impl OpenLoop {
    /// The generator kept to its schedule and the backlog stayed bounded.
    pub fn valid(&self) -> bool {
        self.lag_p50_us <= LAG_LIMIT_US && !self.backlog_growing
    }
}

/// Durable add/drop pairs sent beside the CHECK stream.
pub struct Churn<'a> {
    pub adds: &'a [ChurnAdd],
    /// Pairs started per second.
    pub rate: f64,
}

/// Sleep until `at`: a timed sleep to just short of it, then yields.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Durable add/drop pairs on `conn`, started at `churn.rate` from `start`
/// until `done` is set: add latencies (ms, with depth) and failed acks.
pub fn churn_side(
    mut conn: Conn,
    churn: &Churn,
    start: Instant,
    done: &AtomicBool,
) -> Result<(Vec<(f64, usize)>, usize), String> {
    let (mut adds, mut failures) = (Vec::new(), 0);
    for (k, (name, text, depth)) in churn.adds.iter().enumerate() {
        wait_until(start + Duration::from_secs_f64(k as f64 / churn.rate));
        if done.load(Ordering::Acquire) {
            break;
        }
        let sent = Instant::now();
        let reply = conn.request(&format!("CATALOG ADD {name} {}", escape(text)))?;
        adds.push((sent.elapsed().as_secs_f64() * 1e3, *depth));
        failures += usize::from(!reply.starts_with(&format!("OK added {name} reads=")));
        let reply = conn.request(&format!("CATALOG DROP {name}"))?;
        failures += usize::from(reply != format!("OK dropped {name}"));
    }
    Ok((adds, failures))
}

/// Run CHECK request `lines` open loop at `rate` for `secs` seconds (or
/// until the lines run out), with Poisson arrival times drawn from `seed`.
/// An infinite `rate` instead sends back to back for `secs` seconds: the
/// saturation throughput of one connection with one request in flight.
///
/// Arrival times never depend on replies. The connection carries one
/// request at a time: a request that falls due while the previous one is
/// in flight waits in the generator's queue, and its latency is still timed
/// from its due time. (Pipelining requests instead makes the server's
/// unbatched small replies wait on delayed ACKs, a TCP effect that swamps
/// the check path; see the benchmark's notes.)
pub fn open_loop(
    server: &Server,
    lines: &[String],
    rate: f64,
    secs: f64,
    seed: u64,
    churn: Option<&Churn>,
) -> Result<OpenLoop, String> {
    let mut rng = Rng::new(seed, rate.to_bits());
    let mut due = Vec::new();
    let mut t = 0.0;
    while rate.is_finite() && due.len() < lines.len() {
        t += rng.exp(1.0 / rate);
        if t > secs {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let mut conn = server.connect()?;
    let churn_conn = match churn {
        Some(_) => Some(server.connect()?),
        None => None,
    };
    let done = AtomicBool::new(false);
    // Polling for replies steadies the timing, but takes a core: with adds
    // compiling beside the stream the server needs both.
    let polled = churn.is_none();
    let mut out = OpenLoop { rate, ..OpenLoop::default() };
    let mut lag = Vec::with_capacity(due.len());
    let mut backlog = Vec::new();
    let start = Instant::now() + Duration::from_millis(5);
    let churned = std::thread::scope(|s| -> Result<(Vec<(f64, usize)>, usize), String> {
        let side = churn.zip(churn_conn).map(|(c, conn)| {
            let done = &done;
            s.spawn(move || churn_side(conn, c, start, done))
        });
        let mut result = Ok(());
        let deadline = start + Duration::from_secs_f64(secs);
        if !rate.is_finite() {
            wait_until(start);
            result = saturate(&mut conn, lines, deadline, polled, &mut out);
        }
        for (i, d) in due.iter().enumerate() {
            let due_at = start + *d;
            if Instant::now() >= deadline {
                break;
            }
            if Instant::now() < due_at {
                wait_until(due_at);
                lag.push(due_at.elapsed().as_secs_f64() * 1e6);
            }
            if i % 32 == 31 {
                let now = Instant::now().saturating_duration_since(start);
                backlog.push(due.partition_point(|d| *d <= now).saturating_sub(i) as f64);
            }
            match request(&mut conn, &lines[i], polled) {
                Ok(reply) => {
                    out.lat_us.push(due_at.elapsed().as_secs_f64() * 1e6);
                    out.replies.push(reply);
                    out.sent = i + 1;
                }
                Err(e) => {
                    out.sent = i + 1;
                    result = Err(e);
                    break;
                }
            }
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let churned = match side {
            Some(h) => h.join().map_err(|_| "churn thread panicked".to_string())??,
            None => (Vec::new(), 0),
        };
        result.map(|()| churned)
    });
    (out.adds, out.add_failures) = churned?;
    out.lag_p50_us = quantile(&lag, 0.5);
    out.lag_max_us = lag.iter().copied().fold(0.0, f64::max);
    out.backlog_growing = growing(&backlog, out.sent);
    Ok(out)
}

/// One CHECK, its reply polled for or waited on.
fn request(conn: &mut Conn, line: &str, polled: bool) -> Result<String, String> {
    if polled {
        conn.request_polled(line)
    } else {
        conn.request(line)
    }
}

/// Send `lines` back to back, one in flight, until `deadline`.
fn saturate(
    conn: &mut Conn,
    lines: &[String],
    deadline: Instant,
    polled: bool,
    out: &mut OpenLoop,
) -> Result<(), String> {
    for line in lines {
        if Instant::now() >= deadline {
            break;
        }
        out.replies.push(request(conn, line, polled)?);
        out.sent += 1;
    }
    Ok(())
}

/// Due-but-unsent requests grew from the first quarter of the phase to the
/// last.
fn growing(backlog: &[f64], sent: usize) -> bool {
    if backlog.len() < 8 {
        return false;
    }
    let q = backlog.len() / 4;
    let first = quantile(&backlog[..q], 0.5);
    let last = quantile(&backlog[backlog.len() - q..], 0.5);
    last - first > (0.02 * sent as f64).max(16.0)
}

/// Sequential durable add/drop pairs on an otherwise idle server: add
/// latency in ms with each add's depth, plus the failure count.
pub fn sequential_adds(
    server: &Server,
    adds: &[ChurnAdd],
) -> Result<(Vec<(f64, usize)>, usize), String> {
    let mut conn = server.connect()?;
    let mut out = Vec::with_capacity(adds.len());
    let mut failures = 0;
    for (name, text, depth) in adds {
        let sent = Instant::now();
        let reply = conn.request_polled(&format!("CATALOG ADD {name} {}", escape(text)))?;
        out.push((sent.elapsed().as_secs_f64() * 1e3, *depth));
        if !reply.starts_with(&format!("OK added {name} reads=")) {
            failures += 1;
        }
        if conn.request_polled(&format!("CATALOG DROP {name}"))? != format!("OK dropped {name}") {
            failures += 1;
        }
    }
    Ok((out, failures))
}

/// The wire form of a BATCHALL request over `updates`.
pub fn batchall_request(updates: &[String]) -> String {
    let mut out = format!("BATCHALL {}\n", updates.len());
    for u in updates {
        out.push_str(&escape(u));
        out.push('\n');
    }
    out
}
