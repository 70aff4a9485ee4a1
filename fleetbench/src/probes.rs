//! The traced run: layer probes and their spans.
//!
//! A traced iteration runs the pipeline with a span around each of its
//! public calls (`spec.parse`, `spec.validate`, `compile`, `engine`,
//! `output`, all children of one `e2e` span), then the layer probes:
//! each times one crate's public function on this workload's own inputs
//! — every client's `motion.profile(duration)`, workload, protocol and AP
//! set. A probe measures what the layer costs on the workload; it is not
//! a slice of the engine's run time, whose internal phases are not
//! public.
//!
//! Spans stay in memory ([`Tracer`]) and are written out when the run
//! ends. A span's self time is its duration minus its children's; the
//! `hints` probe replays exactly the hint streams `compile` builds, so it
//! is recorded as `compile`'s child and `compile.self_s` is compile
//! without them.

use crate::pipeline::{self, Samples};
use crate::report::{Report, PER_LAYER};
use crate::{median, ratio, Inputs};
use sensor_hints::channel::delivery::best_rate_for_snr;
use sensor_hints::channel::{Environment, Trace};
use sensor_hints::fleet::{link_snr_db, FleetScenario};
use sensor_hints::mac::contention::{AirtimeArbiter, ContentionParams, Station};
use sensor_hints::mac::MacTiming;
use sensor_hints::rateadapt::fleet::{ContentionMode, FleetSpec};
use sensor_hints::rateadapt::protocols::registry::{AdapterFactory, ProtocolRegistry};
use sensor_hints::rateadapt::scenario::{HintSpec, HINT_SEED_MASK};
use sensor_hints::rateadapt::{HintStream, LinkSimulator, Workload};
use sensor_hints::sensors::gps::Position;
use sensor_hints::sensors::motion::MotionProfile;
use sensor_hints::sim::{RngStream, SimDuration, SimTime};
use sensor_hints::topology::spatial::{Disk, DiskIndex};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest traced iterations a run makes.
pub const MIN_TRACED_ITERATIONS: usize = 2;

/// Delivery-probability target for a station's nominal contention rate:
/// the fleet engine's RBAR-style rule, restated because it is private.
const CONTENTION_RATE_TARGET: f64 = 0.9;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or pipeline step.
    pub name: &'static str,
    /// The workload being run.
    pub workload: &'static str,
    /// Traced iteration the span belongs to.
    pub iteration: u32,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    /// The iteration new spans are tagged with.
    pub iteration: u32,
    /// Every span recorded, in begin order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload,
            iteration: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open span `name` under `parent`; returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            iteration: self.iteration,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as span `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Span `id`'s duration minus its children's, seconds.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum();
        self.spans[id].duration_s() - children
    }

    /// Per iteration, the summed duration (or self time, with `self_time`)
    /// of the spans called `name`.
    pub fn per_iteration(&self, name: &str, self_time: bool) -> Vec<f64> {
        let n = self
            .spans
            .iter()
            .map(|s| s.iteration + 1)
            .max()
            .unwrap_or(0) as usize;
        let mut out = vec![0.0; n];
        for (id, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            out[s.iteration as usize] += if self_time {
                self.self_s(id)
            } else {
                s.duration_s()
            };
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"workload\": \"{}\", \"iteration\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.workload, s.iteration, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Work counts of one traced iteration. The probes and the engine are
/// deterministic, so every iteration of a run must count the same.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Hint samples generated (2 ms each).
    pub hints_samples: u64,
    /// `AirtimeArbiter::arbitrate` calls.
    pub mac_calls: u64,
    /// Frames granted over those calls.
    pub mac_grants: u64,
    /// Collisions over those calls.
    pub mac_collisions: u64,
    /// Channel-trace slots generated (5 ms each).
    pub channel_slots: u64,
    /// Packets offered by the non-flow link runs.
    pub link_packets_sent: u64,
    /// Packets delivered by the non-flow link runs.
    pub link_delivered: u64,
    /// Link attempts by the non-flow link runs.
    pub link_attempts: u64,
    /// Packets the flow runs' backhaul queues dropped.
    pub cc_backhaul_dropped: u64,
    /// `DiskIndex::covering_into` calls.
    pub topology_scans: u64,
    /// AP ids those calls returned.
    pub topology_candidates: u64,
    /// The outcome's total handoffs.
    pub handoffs: u64,
    /// The outcome's forced handoffs.
    pub forced_handoffs: u64,
    /// The outcome's collisions, summed over APs.
    pub outcome_collisions: u64,
    /// Outcome JSON length.
    pub output_bytes: u64,
}

/// The count identities: one hint sample per client per 2 ms of the run
/// (when the fleet has hints), and one scan per client per scan tick.
pub fn expected_counts(spec: &FleetSpec) -> (u64, u64) {
    let clients = spec.clients.len() as u64;
    let dur = spec.duration.as_micros();
    let samples = match spec.hints {
        HintSpec::None => 0,
        _ => clients * (dur / 2_000),
    };
    let scans = clients * dur.div_ceil(spec.handoff.scan_interval.as_micros());
    (samples, scans)
}

/// A client's position at `t`: its start point moved along the velocity
/// schedule of `profile` (the last segment extends forever), as the
/// fleet engine places clients.
fn position_at(start: Position, profile: &MotionProfile, t: SimTime) -> Position {
    let mut pos = start;
    let mut seg_start = SimTime::ZERO;
    let segments = profile.segments();
    for (k, seg) in segments.iter().enumerate() {
        let seg_end = seg_start + seg.duration;
        let last = k + 1 == segments.len();
        let until = if last || t < seg_end { t } else { seg_end };
        let dt = until.saturating_since(seg_start).as_secs_f64();
        let v = seg.state.speed_mps();
        let h = seg.heading_deg.to_radians();
        pos = Position {
            x: pos.x + v * dt * h.sin(),
            y: pos.y + v * dt * h.cos(),
        };
        if until < seg_end || last {
            break;
        }
        seg_start = seg_end;
    }
    pos
}

/// A workload's probe inputs, derived from the spec once per run and
/// outside every span: only the public call under test is timed.
pub struct ProbeInputs {
    spec: FleetSpec,
    factory: AdapterFactory,
    profiles: Vec<MotionProfile>,
    /// Per-client root seeds, derived as compile derives them.
    client_seeds: Vec<u64>,
    workloads: Vec<Workload>,
    /// Per-client channel: the environment at the client's start
    /// distance from its nearest AP.
    trace_envs: Vec<Environment>,
    /// Per-client nearest AP to the start point (the flow's backhaul).
    home_ap: Vec<usize>,
    index: DiskIndex,
    /// Every client's position at every scan tick.
    scan_points: Vec<Position>,
    arbiter: AirtimeArbiter,
    /// One `(epoch length, stations, seed)` per (AP, epoch) with two or
    /// more covered clients, shared medium only.
    arbitrations: Vec<(SimDuration, Vec<Station>, u64)>,
}

impl ProbeInputs {
    /// Derive the probe inputs of `inputs`' spec at its run seed.
    pub fn new(inputs: &Inputs) -> Result<ProbeInputs, String> {
        let mut spec =
            FleetSpec::from_json(&inputs.text).map_err(|e| format!("cannot parse spec: {e}"))?;
        spec.seed = inputs.seed;
        spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
        let env = spec.environment.resolve();
        let factory = ProtocolRegistry::builtin_shared()
            .factory(&spec.protocol.name)
            .ok_or("validated protocol has no factory")?;
        let root = RngStream::new(spec.seed);
        let client_seeds: Vec<u64> = (0..spec.clients.len())
            .map(|i| root.derive_idx("fleet-client", i as u64).seed())
            .collect();
        let profiles: Vec<MotionProfile> = spec
            .clients
            .iter()
            .map(|c| c.motion.profile(spec.duration))
            .collect();
        let workloads = spec
            .clients
            .iter()
            .map(|c| c.workload.resolve())
            .collect::<Result<Vec<_>, _>>()?;
        let starts: Vec<Position> = spec
            .clients
            .iter()
            .map(|c| Position {
                x: c.start_x_m,
                y: c.start_y_m,
            })
            .collect();
        let ap_pos: Vec<Position> = spec
            .aps
            .iter()
            .map(|a| Position { x: a.x_m, y: a.y_m })
            .collect();
        let home_ap: Vec<usize> = starts
            .iter()
            .map(|&s| {
                (0..ap_pos.len())
                    .min_by(|&a, &b| s.distance(ap_pos[a]).total_cmp(&s.distance(ap_pos[b])))
                    .unwrap_or(0)
            })
            .collect();
        let trace_envs = starts
            .iter()
            .zip(&home_ap)
            .map(|(&s, &a)| {
                let mut e = env.clone();
                e.base_snr_db = link_snr_db(&env, s.distance(ap_pos[a]), spec.aps[a].coverage_m);
                e
            })
            .collect();
        let index = DiskIndex::build(
            spec.aps
                .iter()
                .map(|a| Disk {
                    x: a.x_m,
                    y: a.y_m,
                    r: a.coverage_m,
                })
                .collect(),
        );

        let dur = spec.duration.as_micros();
        let scan = spec.handoff.scan_interval.as_micros();
        let mut scan_points = Vec::new();
        for (c, profile) in profiles.iter().enumerate() {
            for k in 0..dur.div_ceil(scan) {
                scan_points.push(position_at(
                    starts[c],
                    profile,
                    SimTime::from_micros(k * scan),
                ));
            }
        }

        let mut arbitrations = Vec::new();
        if spec.contention() == Some(ContentionMode::Shared) {
            let epoch = spec.medium.epoch.as_micros();
            let medium = root.derive("fleet-medium");
            for e in 0..dur.div_ceil(epoch) {
                let (from, to) = (e * epoch, ((e + 1) * epoch).min(dur));
                let mid = SimTime::from_micros((from + to) / 2);
                let at_mid: Vec<Position> = (0..starts.len())
                    .map(|c| position_at(starts[c], &profiles[c], mid))
                    .collect();
                for (a, ap) in spec.aps.iter().enumerate() {
                    let stations: Vec<Station> = at_mid
                        .iter()
                        .map(|p| p.distance(ap_pos[a]))
                        .filter(|&d| d <= ap.coverage_m)
                        .map(|d| {
                            let snr = link_snr_db(&env, d, ap.coverage_m);
                            let rate = best_rate_for_snr(snr, CONTENTION_RATE_TARGET);
                            Station {
                                frame_airtime: MacTiming::ieee80211a()
                                    .exchange_airtime(rate, spec.payload_bytes),
                                active_from: SimDuration::ZERO,
                                active_to: SimDuration::from_micros(to - from),
                            }
                        })
                        .collect();
                    if stations.len() >= 2 {
                        let seed = medium
                            .derive_idx("ap", a as u64)
                            .derive_idx("epoch", e)
                            .seed();
                        arbitrations.push((SimDuration::from_micros(to - from), stations, seed));
                    }
                }
            }
        }
        let arbiter = AirtimeArbiter::new(ContentionParams {
            slot: spec.medium.slot,
            difs: spec.medium.difs,
            cw_min: spec.medium.cw_min,
            cw_max: spec.medium.cw_max,
            ..ContentionParams::ieee80211a()
        });
        Ok(ProbeInputs {
            spec,
            factory,
            profiles,
            client_seeds,
            workloads,
            trace_envs,
            home_ap,
            index,
            scan_points,
            arbiter,
            arbitrations,
        })
    }

    /// The seeded spec the probes run.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// `hints`: every client's full-run hint stream, seeded as compile
    /// seeds it.
    fn hints(&self) -> Vec<Option<HintStream>> {
        let spec = &self.spec;
        (0..spec.clients.len())
            .map(|i| match &spec.hints {
                HintSpec::None => None,
                HintSpec::Oracle { latency } => Some(HintStream::oracle(
                    &self.profiles[i],
                    spec.duration,
                    *latency,
                )),
                HintSpec::Sensors { seed } => {
                    let hint_seed = match seed {
                        Some(s) => RngStream::new(*s)
                            .derive_idx("fleet-hints", i as u64)
                            .seed(),
                        None => self.client_seeds[i] ^ HINT_SEED_MASK,
                    };
                    Some(HintStream::from_sensors(
                        &self.profiles[i],
                        spec.duration,
                        hint_seed,
                    ))
                }
            })
            .collect()
    }

    /// `channel`: every client's full-run channel trace.
    fn channel(&self) -> Vec<Trace> {
        (0..self.spec.clients.len())
            .map(|c| {
                let seed = RngStream::new(self.client_seeds[c])
                    .derive_idx("fleet-span", 0)
                    .seed();
                Trace::generate(
                    &self.trace_envs[c],
                    &self.profiles[c],
                    self.spec.duration,
                    seed,
                )
            })
            .collect()
    }

    /// `link` (`flows == false`) or `cc` (`flows == true`): one
    /// `LinkSimulator::run` per client whose workload is (or is not) a
    /// closed-loop flow, with the spec's adapter and the client's hints;
    /// flows go through their home AP's backhaul.
    fn link(
        &self,
        traces: &[Trace],
        hints: &[Option<HintStream>],
        flows: bool,
        n: &mut LayerCounts,
    ) {
        let params = self.spec.protocol.params();
        for (c, workload) in self.workloads.iter().enumerate() {
            if matches!(workload, Workload::Flow(_)) != flows {
                continue;
            }
            let mut sim = LinkSimulator::new(&traces[c]).with_payload(self.spec.payload_bytes);
            if let Some(h) = &hints[c] {
                sim = sim.with_hints(h);
            }
            if let Some(b) = self.spec.aps[self.home_ap[c]].backhaul.filter(|_| flows) {
                sim = sim.with_backhaul(b);
            }
            let mut adapter = (self.factory)(&params);
            let r = sim.run(adapter.as_mut(), workload);
            if flows {
                n.cc_backhaul_dropped += r.backhaul_dropped;
            } else {
                n.link_packets_sent += r.packets_sent;
                n.link_delivered += r.packets_delivered;
                n.link_attempts += r.attempts;
            }
        }
    }

    /// `mac`: one arbitration per (AP, epoch) with two or more covered
    /// clients.
    fn mac(&self, n: &mut LayerCounts) {
        for (epoch, stations, seed) in &self.arbitrations {
            let sched = self.arbiter.arbitrate(*epoch, stations, *seed);
            n.mac_calls += 1;
            n.mac_grants += sched.grants.len() as u64;
            n.mac_collisions += u64::from(sched.collisions);
        }
    }

    /// `topology`: one spatial-index query per client per scan tick.
    fn topology(&self, n: &mut LayerCounts) {
        let mut ids = Vec::new();
        for p in &self.scan_points {
            self.index.covering_into(p.x, p.y, &mut ids);
            n.topology_scans += 1;
            n.topology_candidates += ids.len() as u64;
        }
    }
}

/// Whether the traced run's counts obey [`expected_counts`].
pub fn identities_hold(spec: &FleetSpec, n: &LayerCounts) -> bool {
    expected_counts(spec) == (n.hints_samples, n.topology_scans)
}

/// Run every layer probe once, recording their spans under `tracer`'s
/// current iteration (`hints` under the `compile` span `compile`).
pub fn run_probes(p: &ProbeInputs, tracer: &mut Tracer, compile: Option<usize>) -> LayerCounts {
    let mut n = LayerCounts::default();
    let hints = tracer.span("hints", compile, || p.hints());
    n.hints_samples = hints.iter().flatten().map(|h| h.len() as u64).sum();
    let traces = tracer.span("channel", None, || p.channel());
    n.channel_slots = traces.iter().map(|t| t.len() as u64).sum();
    tracer.span("link", None, || p.link(&traces, &hints, false, &mut n));
    tracer.span("cc", None, || p.link(&traces, &hints, true, &mut n));
    tracer.span("mac", None, || p.mac(&mut n));
    tracer.span("topology", None, || p.topology(&mut n));
    n
}

/// One traced iteration: the pipeline under an `e2e` span, the
/// `--jobs 2` engine run, then the layer probes. Returns the counts and
/// how many of the iteration's two outcome checks failed.
fn traced_iteration(
    inputs: &Inputs,
    p: &ProbeInputs,
    tracer: &mut Tracer,
) -> Result<(LayerCounts, u64), String> {
    let e2e = tracer.begin("e2e", None);
    let mut spec = tracer
        .span("spec.parse", Some(e2e), || {
            FleetSpec::from_json(&inputs.text)
        })
        .map_err(|e| format!("cannot parse spec: {e}"))?;
    spec.seed = inputs.seed;
    tracer
        .span("spec.validate", Some(e2e), || spec.validate())
        .map_err(|e| format!("invalid spec: {e}"))?;
    let compile = tracer.begin("compile", Some(e2e));
    let fleet = FleetScenario::compile(&spec).map_err(|e| format!("invalid spec: {e}"))?;
    tracer.end(compile);
    let outcome = tracer.span("engine", Some(e2e), || fleet.run_with_jobs(1));
    let json = tracer.span("output", Some(e2e), || outcome.to_json_pretty());
    tracer.end(e2e);

    let sharded = tracer.span("engine.j2", None, || fleet.run_with_jobs(2));
    let failed = u64::from(!inputs.reference.matches(&json))
        + u64::from(!inputs.reference.matches(&sharded.to_json_pretty()));

    let mut n = run_probes(p, tracer, Some(compile));
    n.handoffs = u64::from(outcome.total_handoffs);
    n.forced_handoffs = u64::from(outcome.forced_handoffs);
    n.outcome_collisions = outcome.aps.iter().map(|a| u64::from(a.collisions)).sum();
    n.output_bytes = json.len() as u64;
    Ok((n, failed))
}

/// The traced run: a third of `budget` untraced (the baseline the trace
/// overhead is taken against), the rest traced. Returns the per-layer
/// report and the recorded spans.
pub fn run(inputs: &Inputs, budget: Duration) -> Result<(Report, Tracer), String> {
    let mut base = Samples::default();
    pipeline::warm_up(inputs, &mut base);
    pipeline::measure(inputs, budget / 3, &mut pipeline::Pace::new(), &mut base);

    let probe = ProbeInputs::new(inputs)?;
    let mut tracer = Tracer::new(inputs.workload);
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let mut counts: Option<LayerCounts> = None;
    let mut counts_steady = true;
    let start = Instant::now();
    while (tracer.iteration as usize) < MIN_TRACED_ITERATIONS || start.elapsed() < budget * 2 / 3 {
        let (n, bad) = traced_iteration(inputs, &probe, &mut tracer)?;
        attempted += 2;
        failed += bad;
        counts_steady &= counts.as_ref().map_or(true, |c| *c == n);
        counts = Some(n);
        tracer.iteration += 1;
    }
    let n = counts.unwrap_or_default();
    let identities = identities_hold(probe.spec(), &n);

    let med = |name: &str| median(&tracer.per_iteration(name, false));
    let mut r = Report {
        attempted,
        failed,
        correct: failed == 0 && identities && counts_steady,
        ..Report::default()
    };
    let mut set = |name: &str, v: f64| r.set(PER_LAYER, name, v);
    set("spec.parse_s", med("spec.parse"));
    set("spec.validate_s", med("spec.validate"));
    set("spec.bytes", inputs.text.len() as f64);
    set("compile.s", med("compile"));
    set(
        "compile.self_s",
        median(&tracer.per_iteration("compile", true)),
    );
    set("hints.s", med("hints"));
    set("hints.samples", n.hints_samples as f64);
    set(
        "hints.ns_per_sample",
        ratio(med("hints") * 1e9, n.hints_samples as f64),
    );
    set("engine.run_s", med("engine"));
    set("engine.run_j2_s", med("engine.j2"));
    set("engine.speedup_j2", ratio(med("engine"), med("engine.j2")));
    set("engine.handoffs", n.handoffs as f64);
    set("engine.forced_handoffs", n.forced_handoffs as f64);
    set("mac.arbitrate_s", med("mac"));
    set("mac.calls", n.mac_calls as f64);
    set("mac.grants", n.mac_grants as f64);
    set("mac.collisions", n.mac_collisions as f64);
    set(
        "mac.ns_per_grant",
        ratio(med("mac") * 1e9, n.mac_grants as f64),
    );
    set("mac.outcome_collisions", n.outcome_collisions as f64);
    set("channel.trace_s", med("channel"));
    set("channel.slots", n.channel_slots as f64);
    set(
        "channel.ns_per_slot",
        ratio(med("channel") * 1e9, n.channel_slots as f64),
    );
    set("link.run_s", med("link"));
    set("link.packets_sent", n.link_packets_sent as f64);
    set("link.attempts", n.link_attempts as f64);
    set(
        "link.delivery_ratio",
        ratio(n.link_delivered as f64, n.link_attempts as f64),
    );
    set(
        "link.ns_per_attempt",
        ratio(med("link") * 1e9, n.link_attempts as f64),
    );
    set("cc.flow_run_s", med("cc"));
    set("cc.backhaul_dropped", n.cc_backhaul_dropped as f64);
    set("topology.scan_s", med("topology"));
    set("topology.scans", n.topology_scans as f64);
    set(
        "topology.candidates_per_scan",
        ratio(n.topology_candidates as f64, n.topology_scans as f64),
    );
    set("output.serialize_s", med("output"));
    set("output.bytes", n.output_bytes as f64);
    set("bench.trace_overhead_s", med("e2e") - base.e2e_median());

    r.notes.push(format!(
        "traced iterations: {}; untraced baseline: {} iterations",
        tracer.iteration,
        base.e2e_s.len()
    ));
    if !identities {
        let (samples, scans) = expected_counts(probe.spec());
        r.notes.push(format!(
            "COUNT IDENTITY BROKEN: hints.samples {} (expected {samples}), \
             topology.scans {} (expected {scans})",
            n.hints_samples, n.topology_scans
        ));
    }
    if !counts_steady {
        r.notes
            .push("COUNTS DIFFER BETWEEN TRACED ITERATIONS".to_string());
    }
    Ok((r, tracer))
}
