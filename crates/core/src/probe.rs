//! Probe sinks: ready-made [`Probe`] implementations that turn the
//! pipeline's event stream into reports, traces, and tables.
//!
//! The [`Probe`] trait itself (plus [`Lane`], [`Span`], [`Counter`],
//! and [`NullProbe`]) lives in `ace_layout::probe` — the lowest layer
//! that emits events — and is re-exported here. This module adds the
//! two sinks:
//!
//! * [`CounterProbe`] — aggregates durations, totals, and high-water
//!   marks per lane; [`ExtractionReport`] is a *view* over it
//!   (see [`CounterProbe::report`]). This is also what the extractor
//!   uses internally, so an external `CounterProbe` sees exactly the
//!   numbers the report is built from.
//! * [`ChromeTraceProbe`] — records span begin/end events and writes
//!   `chrome://tracing` JSON with one track (tid) per lane, so a
//!   banded extraction renders as one lane per band worker plus the
//!   main lane holding the stitch span.
//!
//! Sinks compose with the tuple tee from `ace_layout::probe`; the
//! §5 phase table is the report view's
//! [`phase_percent`](ExtractionReport::phase_percent):
//!
//! ```
//! use ace_core::probe::{ChromeTraceProbe, CounterProbe, Probe};
//! use ace_core::{extract_text_probed, ExtractOptions, Phase};
//!
//! let trace = ChromeTraceProbe::new();
//! let counters = CounterProbe::new();
//! let tee = (&trace, &counters);
//! let probe: &dyn Probe = &tee; // one run feeds both sinks
//! extract_text_probed("L NM; B 100 100 0 0; E", ExtractOptions::new(), probe)?;
//! let report = counters.report();
//! assert!(report.phase_percent(Phase::Output) <= 100.0);
//! assert!(!trace.events().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use ace_layout::probe::{Counter, Lane, NullProbe, Probe, Span};

use crate::json::Json;
use crate::report::{ExtractionReport, Phase, StitchStats};

#[derive(Default)]
struct CounterInner {
    /// Open spans: (lane, span) -> (entry instant, nesting depth).
    /// The depth guard makes re-entrant spans count wall time once.
    open: BTreeMap<(u32, Span), (Option<Instant>, u32)>,
    /// Accumulated wall time per (lane, span).
    durations: BTreeMap<(u32, Span), Duration>,
    /// Running totals per (lane, counter).
    counts: BTreeMap<(u32, Counter), u64>,
    /// High-water marks per (lane, counter).
    peaks: BTreeMap<(u32, Counter), u64>,
}

/// Aggregating sink: accumulates span durations, counter totals, and
/// gauge high-water marks, keyed by lane.
///
/// [`ExtractionReport`] is a view over this aggregate — see
/// [`report`](Self::report). The sweep and the band-parallel driver
/// keep one internally, which is where their reports come from.
#[derive(Default)]
pub struct CounterProbe {
    inner: Mutex<CounterInner>,
}

impl CounterProbe {
    /// An empty aggregate.
    pub fn new() -> Self {
        CounterProbe::default()
    }

    /// Total of `counter` summed over all lanes.
    pub fn total(&self, counter: Counter) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .counts
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total of `counter` on one lane.
    pub fn lane_total(&self, lane: Lane, counter: Counter) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.counts.get(&(lane.0, counter)).copied().unwrap_or(0)
    }

    /// Highest gauge value of `counter` seen on any lane.
    pub fn peak(&self, counter: Counter) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .peaks
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0)
    }

    /// Wall time accumulated in `span`, summed over all lanes.
    pub fn span_time(&self, span: Span) -> Duration {
        let inner = self.inner.lock().unwrap();
        inner
            .durations
            .iter()
            .filter(|((_, s), _)| *s == span)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Wall time accumulated in `span` on one lane.
    pub fn lane_span_time(&self, lane: Lane, span: Span) -> Duration {
        let inner = self.inner.lock().unwrap();
        inner
            .durations
            .get(&(lane.0, span))
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Every lane that reported at least one event, ascending.
    pub fn lanes(&self) -> Vec<Lane> {
        let inner = self.inner.lock().unwrap();
        let mut ids: Vec<u32> = inner
            .durations
            .keys()
            .map(|(l, _)| *l)
            .chain(inner.counts.keys().map(|(l, _)| *l))
            .chain(inner.peaks.keys().map(|(l, _)| *l))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(Lane).collect()
    }

    /// Clears every aggregate — accumulated durations, counter
    /// totals, gauge high-water marks, and any open spans — returning
    /// the probe to its freshly-constructed state.
    ///
    /// This is what makes one long-lived probe usable for
    /// *per-request* reporting on a reused extractor (the
    /// extraction-service pattern): without it, counters like
    /// `BandsReused` and gauges like `CacheBytes` accumulate across
    /// runs, so the second request's report carries the first
    /// request's values baked in — and a gauge that legitimately
    /// *shrank* (a cache eviction between requests) keeps reporting
    /// the stale high-water mark forever.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = CounterInner::default();
    }

    /// Builds the [`ExtractionReport`] view, then [`reset`]s — the
    /// per-run report pattern for a probe retained across requests.
    ///
    /// [`reset`]: Self::reset
    pub fn take_report(&self) -> ExtractionReport {
        let report = self.report();
        self.reset();
        report
    }

    /// Builds an [`ExtractionReport`] view of the aggregate.
    ///
    /// Phase times are summed over lanes (CPU work, not wall clock);
    /// `total_time` is the main lane's [`Span::Extract`] duration, and
    /// `threads` and `bands` count the band lanes. The stitch counters
    /// fill [`StitchStats`]; `lint_time` and `drc_time` are the
    /// [`Span::Lint`] and [`Span::Drc`] durations. The caller still
    /// owns fields the probe cannot know, such as how many workers
    /// drained the bands of a parallel run.
    pub fn report(&self) -> ExtractionReport {
        let mut report = ExtractionReport {
            boxes: self.total(Counter::Boxes),
            scanline_stops: self.total(Counter::ScanlineStops),
            fragments: self.total(Counter::Fragments),
            net_unions: self.total(Counter::NetUnions) + self.total(Counter::SeamNetUnions),
            unresolved_labels: self.total(Counter::UnresolvedLabels),
            multi_terminal_devices: self.total(Counter::MultiTerminalDevices),
            max_active: self.peak(Counter::MaxActive) as usize,
            ..ExtractionReport::default()
        };
        for phase in Phase::ALL {
            report.add_phase_time(phase, self.span_time(phase.span()));
        }
        let main_extract = self.lane_span_time(Lane::MAIN, Span::Extract);
        report.total_time = if main_extract > Duration::ZERO {
            main_extract
        } else {
            self.span_time(Span::Extract)
        };
        // Bands map 1:1 onto lanes; the band-parallel driver lowers
        // `threads` afterwards when fewer workers drained the bands.
        report.bands = self
            .lanes()
            .iter()
            .filter(|l| l.band_index().is_some())
            .count();
        report.threads = report.bands;
        report.bands_stolen = self.total(Counter::BandsStolen);
        report.steal_wait = Duration::from_nanos(self.total(Counter::StealWaitNs));
        report.lints_emitted = self.total(Counter::LintsEmitted);
        report.lint_time = self.span_time(Span::Lint);
        report.drc_violations = self.total(Counter::DrcViolations);
        report.drc_time = self.span_time(Span::Drc);
        report.bands_reused = self.total(Counter::BandsReused);
        report.bands_reswept = self.total(Counter::BandsReswept);
        report.cache_bytes = self.peak(Counter::CacheBytes);
        report.coalesced_edits = self.total(Counter::CoalescedEdits);
        report.stitch = StitchStats {
            seam_contacts: self.total(Counter::SeamContacts),
            pairs_matched: self.total(Counter::PairsMatched),
            net_unions: self.total(Counter::SeamNetUnions),
            device_merges: self.total(Counter::DeviceMerges),
            terminal_contacts: self.total(Counter::TerminalContacts),
            partials_completed: self.total(Counter::PartialsCompleted),
            time: self.span_time(Span::Stitch),
        };
        report
    }
}

impl fmt::Debug for CounterProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("CounterProbe")
            .field("spans", &inner.durations.len())
            .field("counters", &inner.counts.len())
            .finish()
    }
}

impl Probe for CounterProbe {
    fn enter(&self, lane: Lane, span: Span) {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.open.entry((lane.0, span)).or_insert((None, 0));
        if slot.1 == 0 {
            slot.0 = Some(Instant::now());
        }
        slot.1 += 1;
    }

    fn exit(&self, lane: Lane, span: Span) {
        let mut inner = self.inner.lock().unwrap();
        let elapsed = match inner.open.get_mut(&(lane.0, span)) {
            None => return, // unmatched exit: ignore
            Some(slot) => {
                slot.1 = slot.1.saturating_sub(1);
                if slot.1 == 0 {
                    slot.0.take().map(|start| start.elapsed())
                } else {
                    None
                }
            }
        };
        if let Some(elapsed) = elapsed {
            *inner
                .durations
                .entry((lane.0, span))
                .or_insert(Duration::ZERO) += elapsed;
        }
    }

    fn add(&self, lane: Lane, counter: Counter, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counts.entry((lane.0, counter)).or_insert(0) += delta;
    }

    fn gauge(&self, lane: Lane, counter: Counter, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let peak = inner.peaks.entry((lane.0, counter)).or_insert(0);
        *peak = (*peak).max(value);
    }
}

/// One begin or end event recorded by [`ChromeTraceProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (the Chrome-trace event name).
    pub name: &'static str,
    /// `'B'` (begin) or `'E'` (end).
    pub phase: char,
    /// Microseconds since the probe was created.
    pub ts_us: u64,
    /// Thread id: the event's lane number.
    pub tid: u32,
}

/// Tracing sink: records span begin/end events and renders them as
/// `chrome://tracing` / Perfetto JSON, one track per lane.
///
/// Counter events are ignored — this sink draws the timeline, the
/// [`CounterProbe`] keeps the numbers; tee them together for both.
#[derive(Debug)]
pub struct ChromeTraceProbe {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for ChromeTraceProbe {
    fn default() -> Self {
        ChromeTraceProbe::new()
    }
}

impl ChromeTraceProbe {
    /// An empty trace; timestamps count from now.
    pub fn new() -> Self {
        ChromeTraceProbe {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Renders the trace as Chrome trace-event JSON (the
    /// `traceEvents` array format `chrome://tracing` and Perfetto
    /// load directly). All events share `pid` 1; `tid` is the lane,
    /// with thread-name metadata naming each track ("main",
    /// "band 0", …).
    pub fn to_json(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let metadata = |tid: Option<u32>, name: &str, value: String| {
            let mut pairs = vec![("ph", Json::str("M")), ("pid", Json::Int(1))];
            pairs.extend(tid.map(|tid| ("tid", Json::Int(tid.into()))));
            pairs.push(("name", Json::str(name)));
            pairs.push(("args", Json::obj([("name", Json::str(value))])));
            Json::obj(pairs)
        };
        let mut trace = vec![metadata(None, "process_name", "ace".into())];
        trace.extend(
            tids.iter()
                .map(|&tid| metadata(Some(tid), "thread_name", Lane(tid).to_string())),
        );
        trace.extend(events.iter().map(|e| {
            Json::obj([
                ("ph", Json::str(e.phase)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(e.tid.into())),
                ("ts", Json::Int(e.ts_us as i64)),
                ("cat", Json::str("ace")),
                ("name", Json::str(e.name)),
            ])
        }));
        let mut out = Json::obj([("traceEvents", Json::Arr(trace))]).to_text();
        out.push('\n');
        out
    }
}

impl Probe for ChromeTraceProbe {
    fn enter(&self, lane: Lane, span: Span) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.events.lock().unwrap().push(TraceEvent {
            name: span.name(),
            phase: 'B',
            ts_us,
            tid: lane.0,
        });
    }

    fn exit(&self, lane: Lane, span: Span) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.events.lock().unwrap().push(TraceEvent {
            name: span.name(),
            phase: 'E',
            ts_us,
            tid: lane.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_probe_aggregates_per_lane() {
        let p = CounterProbe::new();
        p.add(Lane::MAIN, Counter::Boxes, 5);
        p.add(Lane::band(0), Counter::Boxes, 3);
        p.add(Lane::band(1), Counter::Boxes, 2);
        p.gauge(Lane::MAIN, Counter::MaxActive, 4);
        p.gauge(Lane::band(0), Counter::MaxActive, 9);
        p.gauge(Lane::band(0), Counter::MaxActive, 6);
        assert_eq!(p.total(Counter::Boxes), 10);
        assert_eq!(p.lane_total(Lane::band(0), Counter::Boxes), 3);
        assert_eq!(p.peak(Counter::MaxActive), 9);
        assert_eq!(p.lanes(), vec![Lane::MAIN, Lane::band(0), Lane::band(1)]);
    }

    #[test]
    fn counter_probe_times_spans_with_reentrancy_guard() {
        let p = CounterProbe::new();
        p.enter(Lane::MAIN, Span::Extract);
        p.enter(Lane::MAIN, Span::Extract); // nested: no double count
        thread::sleep(Duration::from_millis(2));
        p.exit(Lane::MAIN, Span::Extract);
        p.exit(Lane::MAIN, Span::Extract);
        p.exit(Lane::MAIN, Span::Extract); // unmatched: ignored
        let t = p.lane_span_time(Lane::MAIN, Span::Extract);
        assert!(t >= Duration::from_millis(2));
        assert!(t < Duration::from_secs(5));
    }

    #[test]
    fn report_view_sums_lanes_and_fills_bands() {
        let p = CounterProbe::new();
        p.enter(Lane::MAIN, Span::Extract);
        for i in 0..2 {
            let lane = Lane::band(i);
            p.add(lane, Counter::Boxes, 10 + i as u64);
            p.add(lane, Counter::ScanlineStops, 4);
            p.add(lane, Counter::NetUnions, 1);
            p.enter(lane, Span::Extract);
            p.exit(lane, Span::Extract);
        }
        p.add(Lane::MAIN, Counter::SeamNetUnions, 3);
        p.add(Lane::MAIN, Counter::SeamContacts, 7);
        p.exit(Lane::MAIN, Span::Extract);
        let r = p.report();
        assert_eq!(r.boxes, 21);
        assert_eq!(r.scanline_stops, 8);
        assert_eq!(r.net_unions, 2 + 3); // sweep unions + seam unions
        assert_eq!((r.threads, r.bands), (2, 2)); // one per band lane
        assert_eq!(p.lane_total(Lane::band(1), Counter::Boxes), 11);
        assert_eq!(r.stitch.seam_contacts, 7);
        assert_eq!(r.stitch.net_unions, 3);
    }

    #[test]
    fn reset_clears_totals_peaks_and_open_spans() {
        let p = CounterProbe::new();
        p.add(Lane::MAIN, Counter::BandsReused, 3);
        p.gauge(Lane::MAIN, Counter::CacheBytes, 4096);
        p.enter(Lane::MAIN, Span::Extract); // left open deliberately
        let first = p.take_report();
        assert_eq!(first.bands_reused, 3);
        assert_eq!(first.cache_bytes, 4096);

        // After the reset: no totals, no stale gauge peak, and the
        // dangling enter is forgotten (its exit is ignored).
        p.exit(Lane::MAIN, Span::Extract);
        p.add(Lane::MAIN, Counter::BandsReused, 1);
        p.gauge(Lane::MAIN, Counter::CacheBytes, 512);
        let second = p.report();
        assert_eq!(second.bands_reused, 1, "totals must not accumulate");
        assert_eq!(second.cache_bytes, 512, "gauge peak must not persist");
        assert_eq!(second.total_time, Duration::ZERO);
    }

    #[test]
    fn chrome_trace_records_balanced_events() {
        let p = ChromeTraceProbe::new();
        p.enter(Lane::MAIN, Span::Extract);
        p.enter(Lane::band(0), Span::Band);
        p.exit(Lane::band(0), Span::Band);
        p.add(Lane::MAIN, Counter::Boxes, 1); // ignored
        p.exit(Lane::MAIN, Span::Extract);
        let events = p.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].phase, 'B');
        assert_eq!(events[1].tid, 1);
        let json = p.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"band 0\""));
        assert!(json.contains("\"name\":\"band-sweep\""));
    }

    #[test]
    fn empty_report_view_is_all_zero() {
        let r = CounterProbe::new().report();
        for phase in Phase::ALL {
            assert_eq!(r.phase_percent(phase), 0.0);
        }
        assert_eq!((r.boxes, r.threads, r.bands), (0, 0, 0));
        assert_eq!(r.total_time, Duration::ZERO);
    }
}
