use std::fmt;
use std::time::Duration;

use ace_core::probe::{Counter, CounterProbe, Lane, Span};

/// Instrumentation for one hierarchical extraction.
///
/// The counters mirror HEXT Table 5-2 ("Calls to flat extractor",
/// "Calls to compose routine", "% of time spent in composing") plus
/// the memoization statistics that explain them. Like
/// `ExtractionReport`, it is a view over the run's [`CounterProbe`]:
/// the times are span durations and the counts are counter totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct HextReport {
    /// Front-end time: windowing, clustering, slicing, hashing, the
    /// memo-table lookups and the final wrapper part.
    pub front_end_time: Duration,
    /// Back-end time: flat extraction + composition.
    pub back_end_time: Duration,
    /// Portion of back-end time spent in the compose routine.
    pub compose_time: Duration,
    /// Executed flat-extractor calls (unique primitive windows).
    pub flat_calls: u64,
    /// Primitive-window references satisfied by the window table.
    pub window_cache_hits: u64,
    /// Executed compose operations.
    pub compose_calls: u64,
    /// Compose references satisfied by the compose cache.
    pub compose_cache_hits: u64,
    /// Distinct windows in the table (primitive and composed).
    pub unique_windows: u64,
    /// Total boxes handed to the flat extractor across all calls.
    pub boxes_extracted: u64,
    /// Partial transistors completed during composition.
    pub partials_completed: u64,
}

impl HextReport {
    /// The view over one run's aggregate: the run is the main lane's
    /// [`Span::Extract`], the back end its [`Span::Window`] and
    /// [`Span::Compose`] time, and the front end the rest of the run.
    /// `unique_windows` is table state, not an event, so the caller
    /// supplies it.
    pub(crate) fn from_counters(counters: &CounterProbe, unique_windows: u64) -> Self {
        let compose_time = counters.span_time(Span::Compose);
        let back_end_time = counters.span_time(Span::Window) + compose_time;
        let run = counters.lane_span_time(Lane::MAIN, Span::Extract);
        HextReport {
            front_end_time: run.saturating_sub(back_end_time),
            back_end_time,
            compose_time,
            flat_calls: counters.total(Counter::FlatCalls),
            window_cache_hits: counters.total(Counter::WindowCacheHits),
            compose_calls: counters.total(Counter::ComposeCalls),
            compose_cache_hits: counters.total(Counter::ComposeCacheHits),
            unique_windows,
            boxes_extracted: counters.total(Counter::Boxes),
            partials_completed: counters.total(Counter::PartialsCompleted),
        }
    }

    /// Total extraction time (front-end + back-end).
    pub fn total_time(&self) -> Duration {
        self.front_end_time + self.back_end_time
    }

    /// Fraction of back-end time spent composing (Table 5-2's last
    /// column), in percent.
    pub fn compose_percent(&self) -> f64 {
        let back = self.back_end_time.as_secs_f64();
        if back == 0.0 {
            0.0
        } else {
            100.0 * self.compose_time.as_secs_f64() / back
        }
    }
}

impl fmt::Display for HextReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "front-end {:?}, back-end {:?} ({:.0}% composing)",
            self.front_end_time,
            self.back_end_time,
            self.compose_percent()
        )?;
        write!(
            f,
            "flat calls {} (+{} cached), composes {} (+{} cached), {} unique windows",
            self.flat_calls,
            self.window_cache_hits,
            self.compose_calls,
            self.compose_cache_hits,
            self.unique_windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_percent_handles_zero() {
        let r = HextReport::default();
        assert_eq!(r.compose_percent(), 0.0);
    }

    #[test]
    fn compose_percent_computes_fraction() {
        let r = HextReport {
            back_end_time: Duration::from_secs(10),
            compose_time: Duration::from_secs(7),
            ..HextReport::default()
        };
        assert!((r.compose_percent() - 70.0).abs() < 1e-9);
        assert_eq!(r.total_time(), Duration::from_secs(10));
    }

    #[test]
    fn display_mentions_counters() {
        let s = HextReport::default().to_string();
        assert!(s.contains("flat calls"));
        assert!(s.contains("composing"));
    }
}
