//! `serve`: an open loop against the supervised server. One image holds
//! every shipped program plus a short `tri` method; `nproc − 1` workers
//! serve many tenants while one generator thread submits on a seeded
//! Poisson schedule. Most requests are short `tri(n)` calls (a few
//! hundred instructions, where server overhead rivals the interpreter);
//! a seeded long tail runs the shipped programs and exercises slicing,
//! fairness and head-of-line blocking.

use crate::coldstart::{put_cold_layers, put_fresh_ns_per_instr};
use crate::counters::Counters;
use crate::programs::{self, Cold};
use crate::rng::{Rng, Rounds};
use crate::stats::{median, percentile, ratio, sorted, Windows};
use crate::trace::Tracer;
use crate::{oracle, Metrics, Plan, Run};
use com_mem::Word;
use com_vm::server::{Request, Server, ServerConfig, TenantConfig, Ticket};
use com_workloads::Workload;
use std::time::{Duration, Instant};

/// The short request: `tri(n)` = n(n+1)/2 by a loop.
pub const TRI: &str = "class SmallInteger method tri | acc | \
    acc := 0. 1 to: self do: [ :i | acc := acc + i ]. ^acc end end";

/// Tenants registered with the server.
pub const TENANTS: usize = 64;

/// Share of requests that run a shipped program (the long tail). Far
/// enough above 1% that p99 sits inside the long class, not on its edge.
pub const LONG_SHARE: f64 = 0.05;

/// The two fixed offered rates, requests per second, and the p99 limit
/// a rate must meet, calibrated once on the parent commit with one
/// worker (see `README.md`).
pub const RATE_LOW: f64 = 500.0;
/// See [`RATE_LOW`].
pub const RATE_HIGH: f64 = 1500.0;
/// See [`RATE_LOW`].
pub const P99_LIMIT_US: f64 = 20_000.0;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `tri(n)`.
    Short(i64),
    /// A shipped program, by index into `com_workloads::all()`.
    Long(usize),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, from the phase start.
    pub due: Duration,
    /// Tenant index.
    pub tenant: usize,
    /// The request.
    pub kind: Kind,
}

/// The seeded Poisson arrival schedule of one phase at `rate` req/s.
pub fn schedule(seed: u64, phase: u64, rate: f64, length: Duration) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 100 + phase);
    let mut long = Rounds::new(crate::PROGRAMS.len(), Rng::new(seed, 200 + phase));
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= length.as_secs_f64() {
            return out;
        }
        let tenant = rng.below(TENANTS as u64) as usize;
        let kind = if rng.unit() < LONG_SHARE {
            Kind::Long(long.next_index())
        } else {
            Kind::Short(rng.range(20, 60))
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            tenant,
            kind,
        });
    }
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

fn request(kind: Kind, programs: &[Workload]) -> (Request, i64) {
    match kind {
        Kind::Short(n) => (Request::new("tri", n).idempotent(true), n * (n + 1) / 2),
        Kind::Long(p) => (
            Request::new(programs[p].entry, programs[p].size).idempotent(true),
            programs[p].expected,
        ),
    }
}

/// What one open-loop phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Latency from each request's due time to its response, µs, sorted.
    pub latency_us: Vec<f64>,
    /// How late the generator sent each request, µs, sorted.
    pub lag_us: Vec<f64>,
    /// Host time of each `Server::submit`, µs, sorted.
    pub submit_us: Vec<f64>,
    /// `Server::queued()` sampled at each send, in send order.
    pub queued: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests refused, shed or failed.
    pub failed: u64,
    /// Simulated instructions of the answered requests.
    pub instructions: u64,
}

impl Phase {
    /// Latency percentile, µs.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.latency_us, p).unwrap_or(0.0)
    }

    /// Whether the sampled backlog grew over the phase: the mean of its
    /// last third exceeds twice the mean of its first third plus 8.
    pub fn backlog_grew(&self) -> bool {
        let n = self.queued.len() / 3;
        if n == 0 {
            return false;
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        mean(&self.queued[self.queued.len() - n..]) > 2.0 * mean(&self.queued[..n]) + 8.0
    }

    /// Whether the phase meets the limit: every request answered, p99
    /// within [`P99_LIMIT_US`], and no growing backlog.
    pub fn meets_limit(&self) -> bool {
        self.failed == 0 && self.latency(0.99) <= P99_LIMIT_US && !self.backlog_grew()
    }
}

/// Latency of a request sent at `sent`, due at `due`, answered `service`
/// after admission: timed from the due time, so a late generator or a
/// stalled server counts against every request it delayed.
pub fn due_latency(due: Instant, sent: Instant, service: Duration) -> Duration {
    sent.saturating_duration_since(due) + service
}

/// Submits `arrivals` on schedule (sleeping, never spinning, between
/// sends), then collects and checks every response.
pub fn phase(
    server: &Server,
    arrivals: &[Arrival],
    rate: f64,
    programs: &[Workload],
    tracer: &mut Tracer,
    op0: u64,
    run: &mut Run,
) -> Phase {
    let mut ph = Phase {
        rate,
        ..Phase::default()
    };
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    let mut pending: Vec<(Ticket, Instant, Instant, i64)> = Vec::with_capacity(arrivals.len());
    let start = Instant::now() + Duration::from_millis(1);
    let (mut lag, mut submit) = (Vec::new(), Vec::new());
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + a.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lag.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        ph.queued.push(server.queued() as f64);
        let (req, expected) = request(a.kind, programs);
        ph.attempted += 1;
        let op = op0 + i as u64 + 1;
        tracer.begin("op", op);
        let ticket = tracer.span("vm.server.submit", op, || {
            server.submit(&names[a.tenant], req)
        });
        tracer.end();
        submit.push(sent.elapsed().as_secs_f64() * 1e6);
        match ticket {
            Ok(t) => pending.push((t, due, sent, expected)),
            Err(_) => ph.failed += 1,
        }
    }
    let mut latency = Vec::with_capacity(pending.len());
    for (ticket, due, sent, expected) in pending {
        let resp = ticket.wait();
        match resp.outcome {
            Ok(word) => {
                if word != Word::Int(expected) {
                    run.wrong(format!(
                        "{} request {}: answered {word:?}, expected {expected}",
                        resp.tenant, resp.request
                    ));
                }
                ph.instructions += resp.stats.instructions;
                latency.push(due_latency(due, sent, resp.latency).as_secs_f64() * 1e6);
            }
            Err(_) => ph.failed += 1,
        }
    }
    ph.latency_us = sorted(latency);
    ph.lag_us = sorted(lag);
    ph.submit_us = sorted(submit);
    ph
}

/// Rounds of interleaved low-rate, high-rate and capacity stretches in an
/// untraced run.
pub const CYCLES: u64 = 5;

/// Requests kept outstanding by the closed capacity phase.
pub const IN_FLIGHT: usize = 32;

/// Every `LONG_EVERY`-th request of the capacity phase is long, so the
/// phase's long share matches [`LONG_SHARE`] exactly.
pub const LONG_EVERY: usize = 20;

/// Completions per capacity window: two whole rounds of the 11 long
/// programs (about 70 ms), so every window holds nearly the same work;
/// only the requests in flight at its edges differ.
pub const CAPACITY_WINDOW: usize = 2 * LONG_EVERY * crate::PROGRAMS.len();

/// One stretch of the capacity measurement: a closed loop keeps
/// [`IN_FLIGHT`] requests outstanding (the same 95/5 mix, in a
/// deterministic order drawn from stream `stream` of `seed`) for
/// `length`, and times completions into `done`, whose windows should
/// hold [`CAPACITY_WINDOW`] requests. Returns requests attempted and
/// failed.
pub fn capacity(
    server: &Server,
    seed: u64,
    stream: u64,
    length: Duration,
    done: &mut Windows,
    programs: &[Workload],
    run: &mut Run,
) -> (u64, u64) {
    let mut rng = Rng::new(seed, 300 + 2 * stream);
    let mut long = Rounds::new(crate::PROGRAMS.len(), Rng::new(seed, 301 + 2 * stream));
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    let mut outstanding = std::collections::VecDeque::new();
    done.reopen();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        while outstanding.len() < IN_FLIGHT && start.elapsed() < length {
            let kind = if i % LONG_EVERY == LONG_EVERY - 1 {
                Kind::Long(long.next_index())
            } else {
                Kind::Short(rng.range(20, 60))
            };
            let (req, expected) = request(kind, programs);
            attempted += 1;
            match server.submit(&names[i % TENANTS], req) {
                Ok(t) => outstanding.push_back((t, expected)),
                Err(_) => failed += 1,
            }
            i += 1;
        }
        let Some((ticket, expected)) = outstanding.pop_front() else {
            break;
        };
        let resp = ticket.wait();
        match resp.outcome {
            Ok(word) => {
                if word != Word::Int(expected) {
                    run.wrong(format!(
                        "{} request {}: answered {word:?}, expected {expected}",
                        resp.tenant, resp.request
                    ));
                }
                done.push(resp.latency.as_secs_f64() * 1e6);
            }
            Err(_) => failed += 1,
        }
    }
    (attempted, failed)
}

/// Workers: one fewer than the host's cores, so that the generator and
/// the workers never need more threads than there are cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

/// A started server with every tenant registered and warmed.
pub struct Served {
    /// The server.
    pub server: Server,
    /// Image build layer times.
    pub build: Cold,
    /// `Server::register` host time per tenant, µs.
    pub register_us: Vec<f64>,
}

/// Builds the image, starts the server, registers every tenant and
/// warms each with one short request.
///
/// # Errors
///
/// Any build, registration or warm-up failure, described.
pub fn start(programs: &[Workload], tracer: &mut Tracer) -> Result<Served, String> {
    let mut sources: Vec<&str> = programs.iter().map(|w| w.source).collect();
    sources.push(TRI);
    let (vm, build) =
        programs::build(&sources, tracer, 0).map_err(|e| format!("serve image: {e}"))?;
    let config = ServerConfig {
        workers: workers(),
        queue_depth: 1 << 16,
        ..ServerConfig::default()
    };
    let server = Server::start(vm, config);
    let mut register_us = Vec::new();
    for t in 0..TENANTS {
        let at = Instant::now();
        tracer
            .span("vm.server.register", 0, || {
                server.register(&tenant_name(t), TenantConfig::default())
            })
            .map_err(|e| format!("register: {e}"))?;
        register_us.push(at.elapsed().as_secs_f64() * 1e6);
    }
    let warm: Vec<Ticket> = (0..TENANTS)
        .map(|t| server.submit(&tenant_name(t), Request::new("tri", 30).idempotent(true)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up: {e}"))?;
    for ticket in warm {
        let r = ticket.wait();
        if r.outcome != Ok(Word::Int(465)) {
            return Err(format!("warm-up {}: {:?}", r.tenant, r.outcome));
        }
    }
    Ok(Served {
        server,
        build,
        register_us,
    })
}

/// The highest offered rate that meets the limit. Bisects (in log
/// space) between `lo`, assumed to meet it, and `hi` with `probes` phases
/// of `length`, then interpolates log p99 between the highest passing
/// probe and the lowest failing one above it, so the answer is not
/// quantized to the probe grid.
#[allow(clippy::too_many_arguments)]
pub fn max_rate(
    server: &Server,
    seed: u64,
    lo: (f64, f64),
    hi: f64,
    probes: u32,
    length: Duration,
    programs: &[Workload],
    run: &mut Run,
) -> (f64, Vec<Phase>) {
    let (mut pass, mut fail) = (lo, None::<(f64, f64)>);
    let mut hi = hi;
    let mut seen = Vec::new();
    for k in 0..probes {
        let rate = (pass.0 * hi).sqrt();
        let arrivals = schedule(seed, 10 + u64::from(k), rate, length);
        let ph = phase(
            server,
            &arrivals,
            rate,
            programs,
            &mut Tracer::new(false),
            0,
            run,
        );
        if ph.meets_limit() {
            pass = (rate, ph.latency(0.99));
        } else {
            hi = rate;
            fail = Some((rate, ph.latency(0.99)));
        }
        seen.push(ph);
    }
    (interpolate(pass, fail), seen)
}

/// The rate at which log p99 reaches the limit on the line through the
/// passing probe `pass` and the failing probe `fail` (rate, p99 µs).
pub fn interpolate(pass: (f64, f64), fail: Option<(f64, f64)>) -> f64 {
    let Some(fail) = fail else { return pass.0 };
    let (lp, lf, ll) = (
        pass.1.max(1.0).ln(),
        fail.1.max(1.0).ln(),
        P99_LIMIT_US.ln(),
    );
    if lf <= lp {
        return pass.0;
    }
    let t = ((ll - lp) / (lf - lp)).clamp(0.0, 1.0);
    pass.0 + (fail.0 - pass.0) * t
}

/// One sample series of every phase, pooled and sorted.
fn pooled(phases: &[Phase], series: fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
    sorted(
        phases
            .iter()
            .flat_map(|p| series(p).iter().copied())
            .collect(),
    )
}

/// A percentile of sorted samples; `0.0` when there are none.
fn at(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

fn put_phase_detail(d: &mut Metrics, label: &str, phases: &[Phase]) {
    let latency = pooled(phases, |p| &p.latency_us);
    d.put(
        format!("serve.latency_us_p50.{label}"),
        at(&latency, 0.5),
        "us",
    );
    d.put(
        format!("serve.latency_us_p99.{label}"),
        at(&latency, 0.99),
        "us",
    );
    d.put(
        format!("serve.rate_rps.{label}"),
        phases.first().map_or(0.0, |p| p.rate),
        "1/s",
    );
    d.put(
        format!("serve.samples.{label}"),
        latency.len() as f64,
        "count",
    );
    d.put(
        format!("serve.gen_lag_us_p99.{label}"),
        at(&pooled(phases, |p| &p.lag_us), 0.99),
        "us",
    );
    let grew = phases.iter().any(Phase::backlog_grew);
    d.put(
        format!("serve.backlog_grew.{label}"),
        f64::from(u8::from(grew)),
        "bool",
    );
}

/// Runs the workload.
pub fn run(plan: Plan) -> Run {
    let mut run = Run::default();
    let programs = com_workloads::all();
    let reference = oracle::parse(oracle::RECORDED).expect("oracle.txt parses");
    let mut tracer = Tracer::new(plan.trace);
    // The fidelity pass, outside the timed set-up.
    let pass = match programs::fresh_pass(&programs, &reference, &mut tracer) {
        Ok(p) => p,
        Err(e) => {
            run.wrong(e);
            return run;
        }
    };
    let mut setup_secs = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..crate::SETUP_REPEATS {
        if let Some(old) = served.take() {
            old.server.drain(Duration::from_secs(5));
        }
        let t = Instant::now();
        match start(&programs, &mut tracer) {
            Ok(s) => served = Some(s),
            Err(e) => {
                run.wrong(e);
                return run;
            }
        }
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("SETUP_REPEATS > 0");
    let server = &served.server;
    let total = plan.measure.as_secs_f64();
    let mut phases = Vec::new();
    if !plan.trace {
        // The low-rate, high-rate and capacity stretches are interleaved
        // in CYCLES rounds, so each samples the host's fast and slow
        // states alike (see `stats::Windows`).
        let len = |share: f64| Duration::from_secs_f64(total * share);
        let (mut lows, mut highs) = (Vec::new(), Vec::new());
        let mut cap = Windows::new(CAPACITY_WINDOW);
        for c in 0..CYCLES {
            let cycle = |share: f64| len(share / CYCLES as f64);
            lows.push(phase(
                server,
                &schedule(plan.seed, c, RATE_LOW, cycle(0.5)),
                RATE_LOW,
                &programs,
                &mut tracer,
                0,
                &mut run,
            ));
            highs.push(phase(
                server,
                &schedule(plan.seed, 100 + c, RATE_HIGH, cycle(0.1)),
                RATE_HIGH,
                &programs,
                &mut tracer,
                0,
                &mut run,
            ));
            let (attempted, failed) = capacity(
                server,
                plan.seed,
                c,
                cycle(0.25),
                &mut cap,
                &programs,
                &mut run,
            );
            run.attempted += attempted;
            run.failed += failed;
        }
        // The max-rate probes overload the server on purpose, and their
        // backlog, and so the memory it holds, follows the host's speed;
        // the reported peak is the one set-up and the measured stretches
        // reach.
        let peak_rss = crate::peak_rss_mb();
        let high_p99 = (RATE_HIGH, at(&pooled(&highs, |p| &p.latency_us), 0.99));
        let (best, probes) = max_rate(
            server,
            plan.seed,
            high_p99,
            RATE_HIGH * 3.0,
            3,
            len(0.05),
            &programs,
            &mut run,
        );
        // Open-loop latency is taken per cycle over that cycle's whole
        // low-rate schedule, and the median cycle reported: a slow host
        // state that lets the queue build counts in full, but only when
        // it lasts through most of the run.
        let low = |p: f64| median(&lows.iter().map(|ph| ph.latency(p)).collect::<Vec<_>>());
        let cap_kept = cap.fastest(crate::FAST_SHARE);
        let m = &mut run.metrics;
        m.put("setup_s", median(&setup_secs), "s");
        m.put("peak_rss_mb", peak_rss, "MB");
        m.put("latency_us_p50", low(0.5), "us");
        m.put("latency_us_p99", low(0.99), "us");
        m.put("ops_per_s", cap_kept.rate(), "1/s");
        let d = &mut run.detail;
        put_phase_detail(d, "low", &lows);
        put_phase_detail(d, "high", &highs);
        d.put("serve.capacity_rps", cap_kept.rate(), "1/s");
        d.put(
            "serve.capacity_windows_kept",
            cap_kept.windows.0 as f64,
            "count",
        );
        d.put("serve.capacity_windows", cap_kept.windows.1 as f64, "count");
        d.put("serve.max_rate_rps", best, "1/s");
        d.put("serve.p99_limit_us", P99_LIMIT_US, "us");
        for (i, p) in probes.iter().enumerate() {
            put_phase_detail(d, &format!("probe{i}"), std::slice::from_ref(p));
        }
        phases.extend(lows);
        phases.extend(highs);
        phases.extend(probes);
    } else {
        let len = |share: f64| Duration::from_secs_f64(total * share);
        let mut off = Tracer::new(false);
        let a = phase(
            server,
            &schedule(plan.seed, 0, RATE_LOW, len(crate::UNTRACED_SHARE)),
            RATE_LOW,
            &programs,
            &mut off,
            0,
            &mut run,
        );
        let half = (1.0 - crate::UNTRACED_SHARE) / 2.0;
        let b_low = phase(
            server,
            &schedule(plan.seed, 1, RATE_LOW, len(half)),
            RATE_LOW,
            &programs,
            &mut tracer,
            0,
            &mut run,
        );
        let op0 = b_low.attempted;
        let b_high = phase(
            server,
            &schedule(plan.seed, 2, RATE_HIGH, len(half)),
            RATE_HIGH,
            &programs,
            &mut tracer,
            op0,
            &mut run,
        );
        let m = &mut run.metrics;
        put_cold_layers(m, &[served.build]);
        // A tenant's session is booted by `Server::register`.
        m.put("vm.session_us", median(&served.register_us), "us");
        let first: Vec<f64> = pass.calls.iter().map(|c| c.ns as f64 / 1e3).collect();
        m.put("core.first_call_us", median(&first), "us");
        put_fresh_ns_per_instr(m, &pass);
        let overhead = crate::overhead_share(a.latency(0.5), b_low.latency(0.5));
        let b_ops = b_low.attempted + b_high.attempted;
        phases.push(a);
        phases.push(b_low);
        phases.push(b_high);
        let traced = &phases[1..];
        let instr: u64 = traced.iter().map(|p| p.instructions).sum();
        let answered: usize = traced.iter().map(|p| p.latency_us.len()).sum();
        let stats = server.stats();
        m.put(
            "vm.server.submit_us_p99",
            at(&pooled(traced, |p| &p.submit_us), 0.99),
            "us",
        );
        m.put(
            "vm.server.queued_p99",
            at(&pooled(traced, |p| &p.queued), 0.99),
            "count",
        );
        m.put("vm.server.max_queued", stats.max_queued as f64, "count");
        m.put(
            "vm.server.instr_per_request",
            ratio(instr as f64, answered as f64),
            "count",
        );
        m.put("vm.server.retries", stats.retries as f64, "count");
        m.put("vm.server.shed", stats.shed as f64, "count");
        m.put(
            "vm.server.deadline_exceeded",
            stats.deadline_exceeded as f64,
            "count",
        );
        m.put(
            "serve.gen_lag_us_p99",
            at(&pooled(traced, |p| &p.lag_us), 0.99),
            "us",
        );
        crate::put_self_times(m, &tracer, b_ops);
        m.put("trace.overhead_share", overhead, "ratio");
    }
    let report = served.server.drain(Duration::from_secs(30));
    let mut counters = Counters::default();
    for (_, s) in &report.sessions {
        counters.add(Counters::of(s));
    }
    if plan.trace {
        crate::put_counters(&mut run.metrics, &counters);
        crate::write_trace(&tracer, "serve", plan.seed);
    }
    run.attempted += phases.iter().map(|p| p.attempted).sum::<u64>();
    run.failed += phases.iter().map(|p| p.failed).sum::<u64>();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = schedule(3, 0, 1000.0, Duration::from_secs(4));
        assert_eq!(a, schedule(3, 0, 1000.0, Duration::from_secs(4)));
        assert_ne!(a, schedule(4, 0, 1000.0, Duration::from_secs(4)));
        assert_ne!(a, schedule(3, 1, 1000.0, Duration::from_secs(4)));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.last().unwrap().due < Duration::from_secs(4));
        // ~4000 arrivals: within 5% of the offered rate.
        assert!((3800..=4200).contains(&a.len()), "{}", a.len());
        let long = a.iter().filter(|x| matches!(x.kind, Kind::Long(_))).count() as f64;
        let share = long / a.len() as f64;
        assert!((0.03..0.07).contains(&share), "{share}");
        assert!(a.iter().all(|x| x.tenant < TENANTS));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let service = Duration::from_micros(200);
        // A late send counts against the request.
        let late = due + Duration::from_millis(3);
        assert_eq!(due_latency(due, late, service), Duration::from_micros(3200));
        // Sent on time: just the service time.
        assert_eq!(due_latency(due, due, service), service);
    }

    #[test]
    fn open_loop_phase_answers_every_request_in_order_of_schedule() {
        let programs = com_workloads::all();
        let served = start(&programs, &mut Tracer::new(false)).unwrap();
        let arrivals = schedule(1, 0, 400.0, Duration::from_millis(150));
        let mut run = Run::default();
        let t = Instant::now();
        let ph = phase(
            &served.server,
            &arrivals,
            400.0,
            &programs,
            &mut Tracer::new(true),
            0,
            &mut run,
        );
        // The generator waited for the last due time rather than bursting.
        assert!(t.elapsed() >= arrivals.last().unwrap().due);
        assert!(run.wrong.is_empty(), "{:?}", run.wrong);
        assert_eq!(ph.failed, 0);
        assert_eq!(ph.attempted as usize, arrivals.len());
        assert_eq!(ph.latency_us.len(), arrivals.len());
        assert_eq!(ph.queued.len(), arrivals.len());
        assert!(ph.latency_us.iter().all(|&l| l > 0.0));
        served.server.drain(Duration::from_secs(5));
    }

    #[test]
    fn max_rate_interpolates_between_probes() {
        assert_eq!(interpolate((2000.0, 9000.0), None), 2000.0);
        let mid = interpolate(
            (2000.0, P99_LIMIT_US / 2.0),
            Some((3000.0, P99_LIMIT_US * 2.0)),
        );
        assert!((mid - 2500.0).abs() < 1e-6, "{mid}");
        // A failing probe with a lower p99 (it failed on backlog) adds nothing.
        assert_eq!(
            interpolate((2000.0, 9000.0), Some((3000.0, 8000.0))),
            2000.0
        );
    }

    #[test]
    fn a_backlog_that_grows_fails_the_limit() {
        let steady = Phase {
            queued: vec![1.0; 30],
            latency_us: vec![100.0; 30],
            ..Phase::default()
        };
        assert!(steady.meets_limit());
        let growing = Phase {
            queued: (0..30).map(f64::from).collect(),
            ..steady
        };
        assert!(growing.backlog_grew());
        assert!(!growing.meets_limit());
    }
}
