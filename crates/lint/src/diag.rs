//! The diagnostic model: rules, severities, spans, and ordering.
//!
//! A [`Diagnostic`] is deliberately *backend-stable*: it never embeds
//! a [`ace_wirelist::NetId`] or a net's representative location, both
//! of which depend on extraction order (flat vs. lazy vs. banded).
//! Spans anchor on things every backend agrees on — device channel
//! locations, layout label positions, and contact rectangles — so the
//! same chip yields the same diagnostic multiset no matter which
//! extractor produced the netlist.

use std::fmt;

use ace_geom::{Point, Rect};

/// Severity of a [`Diagnostic`].
///
/// The names mirror SARIF 2.1.0 `level` values, so [`Severity::name`]
/// can be emitted verbatim in both the text and SARIF renderers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects the CLI exit status.
    Note,
    /// Suspicious but not definitely wrong.
    Warning,
    /// Almost certainly a layout bug; makes `acelint` exit non-zero.
    Error,
}

impl Severity {
    /// The lowercase name (also the SARIF `level`).
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a severity name as printed by [`Severity::name`].
    pub fn from_name(name: &str) -> Option<Severity> {
        match name {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The built-in ERC rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A device gate on a net with no label and no source/drain
    /// connection anywhere: the gate can never be driven.
    FloatingGate,
    /// A single electrical net carrying both a power and a ground
    /// label (`VDD!` merged with `GND!`).
    SupplyShort,
    /// An unnamed net that reaches exactly one source/drain terminal
    /// and no gate: a dead-end stub that can neither drive nor load.
    UndrivenNet,
    /// A device whose channel is degenerate (zero W/L from
    /// zero-length terminal edges) or narrower than the minimum
    /// feature size.
    ZeroWlDevice,
    /// A contact cut overlapping fewer than two conducting layers, or
    /// a buried contact that does not bridge poly and diffusion.
    DanglingCut,
    /// A depletion-mode device whose gate is tied to neither terminal
    /// — not the standard NMOS pullup configuration.
    DepletionPullup,
    /// One label name attached to two or more distinct nets.
    ConflictingLabels,
    /// A net whose accumulated wire capacitance exceeds what its
    /// channel-terminal drivers can plausibly charge: more than
    /// [`crate::LintConfig::overload_cap_af_per_drive`] attofarads
    /// per unit of total driver W/L.
    OverloadedNet,
    /// Geometric DRC: a region of a mask layer narrower than the
    /// deck's minimum width in both axes (checked by `ace_drc`).
    MinWidth,
    /// Geometric DRC: two distinct merged regions of one layer closer
    /// than the deck's minimum spacing (checked by `ace_drc`).
    MinSpacing,
    /// Geometric DRC: an inner-layer region (typically a contact cut)
    /// not enclosed by the required outer layer with the deck's
    /// margin on all sides (checked by `ace_drc`).
    MinEnclosure,
    /// Geometric DRC: a layer crossing another without extending the
    /// deck's margin past it — e.g. gate poly ending flush with the
    /// diffusion edge (checked by `ace_drc`).
    MinOverlap,
}

/// Number of built-in rules.
pub const RULE_COUNT: usize = 12;

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; RULE_COUNT] = [
        RuleId::FloatingGate,
        RuleId::SupplyShort,
        RuleId::UndrivenNet,
        RuleId::ZeroWlDevice,
        RuleId::DanglingCut,
        RuleId::DepletionPullup,
        RuleId::ConflictingLabels,
        RuleId::OverloadedNet,
        RuleId::MinWidth,
        RuleId::MinSpacing,
        RuleId::MinEnclosure,
        RuleId::MinOverlap,
    ];

    /// Dense index in `0..RULE_COUNT`.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable kebab-case rule id used in reports and on the CLI.
    pub const fn name(self) -> &'static str {
        match self {
            RuleId::FloatingGate => "floating-gate",
            RuleId::SupplyShort => "supply-short",
            RuleId::UndrivenNet => "undriven-net",
            RuleId::ZeroWlDevice => "zero-wl-device",
            RuleId::DanglingCut => "dangling-cut",
            RuleId::DepletionPullup => "depletion-pullup",
            RuleId::ConflictingLabels => "conflicting-labels",
            RuleId::OverloadedNet => "overloaded-net",
            RuleId::MinWidth => "min-width",
            RuleId::MinSpacing => "min-spacing",
            RuleId::MinEnclosure => "min-enclosure",
            RuleId::MinOverlap => "min-overlap",
        }
    }

    /// Parses a rule id as printed by [`RuleId::name`].
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The severity a fresh [`crate::LintConfig`] assigns this rule.
    pub const fn default_severity(self) -> Severity {
        match self {
            RuleId::FloatingGate => Severity::Error,
            RuleId::SupplyShort => Severity::Error,
            RuleId::UndrivenNet => Severity::Warning,
            RuleId::ZeroWlDevice => Severity::Error,
            RuleId::DanglingCut => Severity::Warning,
            RuleId::DepletionPullup => Severity::Warning,
            RuleId::ConflictingLabels => Severity::Warning,
            RuleId::OverloadedNet => Severity::Warning,
            RuleId::MinWidth => Severity::Error,
            RuleId::MinSpacing => Severity::Error,
            RuleId::MinEnclosure => Severity::Error,
            RuleId::MinOverlap => Severity::Error,
        }
    }

    /// One-line rule summary (SARIF `shortDescription`).
    pub const fn short_description(self) -> &'static str {
        match self {
            RuleId::FloatingGate => {
                "device gate on an unlabeled net with no source/drain connection"
            }
            RuleId::SupplyShort => "power and ground labels merged onto one electrical net",
            RuleId::UndrivenNet => "unnamed net reaching only a single source/drain terminal",
            RuleId::ZeroWlDevice => "degenerate or sub-minimum channel dimensions",
            RuleId::DanglingCut => "contact that fails to bridge two layers",
            RuleId::DepletionPullup => "depletion device with gate tied to neither terminal",
            RuleId::ConflictingLabels => "one label name on two or more distinct nets",
            RuleId::OverloadedNet => "wire capacitance far beyond the attached drivers' strength",
            RuleId::MinWidth => "layer region below the deck's minimum width in both axes",
            RuleId::MinSpacing => "distinct same-layer regions closer than the minimum spacing",
            RuleId::MinEnclosure => "inner layer not enclosed by the required outer margin",
            RuleId::MinOverlap => "layer fails to extend the required margin past a crossing",
        }
    }

    /// True for the geometric DRC rules, which are checked over raw
    /// mask geometry by `ace_drc` rather than by the wirelist-level
    /// ERC engine in this crate. [`crate::lint`] skips them.
    pub const fn is_geometric(self) -> bool {
        matches!(
            self,
            RuleId::MinWidth | RuleId::MinSpacing | RuleId::MinEnclosure | RuleId::MinOverlap
        )
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a [`LintSpan`] points in the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// A single position (device location, label position).
    At(Point),
    /// An area (a contact box).
    Area(Rect),
}

impl Anchor {
    /// A total order so diagnostic output is deterministic: points
    /// before areas, then lexicographic coordinates.
    pub fn sort_key(&self) -> (u8, i64, i64, i64, i64) {
        match *self {
            Anchor::At(p) => (0, p.x, p.y, p.x, p.y),
            Anchor::Area(r) => (1, r.x_min, r.y_min, r.x_max, r.y_max),
        }
    }
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Anchor::At(p) => write!(f, "({}, {})", p.x, p.y),
            Anchor::Area(r) => write!(f, "({}, {})-({}, {})", r.x_min, r.y_min, r.x_max, r.y_max),
        }
    }
}

/// A labeled pointer into the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSpan {
    /// CIF coordinates the span points at.
    pub anchor: Anchor,
    /// What the anchor is ("gate of nEnh", "also 'X'", …).
    pub label: String,
    /// The net name involved, when there is one — lets the SARIF
    /// emitter recover the `94` label's source line from
    /// [`ace_cif::label_sites`].
    pub name: Option<String>,
}

impl LintSpan {
    /// A span at a point with no associated net name.
    pub fn at(p: Point, label: impl Into<String>) -> LintSpan {
        LintSpan {
            anchor: Anchor::At(p),
            label: label.into(),
            name: None,
        }
    }

    /// A span covering a rectangle.
    pub fn area(r: Rect, label: impl Into<String>) -> LintSpan {
        LintSpan {
            anchor: Anchor::Area(r),
            label: label.into(),
            name: None,
        }
    }

    /// Attaches a net name for source-line recovery.
    pub fn named(mut self, name: impl Into<String>) -> LintSpan {
        self.name = Some(name.into());
        self
    }
}

/// One ERC finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Effective severity (after [`crate::LintConfig`] overrides).
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// The main span — what the finding is about.
    pub primary: LintSpan,
    /// Secondary spans (the other conflicting label, the ground half
    /// of a supply short, …).
    pub related: Vec<LintSpan>,
}

impl Diagnostic {
    /// Renders the canonical single-line text form, also used by the
    /// golden snapshots: `severity[rule] @ anchor: message`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] @ {}: {}",
            self.severity.name(),
            self.rule.name(),
            self.primary.anchor,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Sorts diagnostics into the canonical report order: rule, then
/// primary anchor, then message. The order is independent of netlist
/// iteration order, which is what makes snapshots and cross-backend
/// comparison meaningful.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.rule.index(), a.primary.anchor.sort_key(), &a.message).cmp(&(
            b.rule.index(),
            b.primary.anchor.sort_key(),
            &b.message,
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
            assert_eq!(rule.index(), RuleId::ALL[rule.index()].index());
        }
        assert_eq!(RuleId::from_name("no-such-rule"), None);
    }

    #[test]
    fn severity_names_round_trip() {
        for sev in [Severity::Note, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::from_name(sev.name()), Some(sev));
        }
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn render_is_stable() {
        let d = Diagnostic {
            rule: RuleId::FloatingGate,
            severity: Severity::Error,
            message: "floating gate".into(),
            primary: LintSpan::at(Point::new(250, -500), "gate"),
            related: vec![],
        };
        assert_eq!(
            d.render(),
            "error[floating-gate] @ (250, -500): floating gate"
        );
        let a = Diagnostic {
            rule: RuleId::DanglingCut,
            severity: Severity::Warning,
            message: "dangling".into(),
            primary: LintSpan::area(Rect::new(0, 0, 250, 250), "cut"),
            related: vec![],
        };
        assert_eq!(
            a.render(),
            "warning[dangling-cut] @ (0, 0)-(250, 250): dangling"
        );
    }

    #[test]
    fn sorting_is_rule_then_anchor_then_message() {
        let mk = |rule: RuleId, x: i64, msg: &str| Diagnostic {
            rule,
            severity: rule.default_severity(),
            message: msg.into(),
            primary: LintSpan::at(Point::new(x, 0), "x"),
            related: vec![],
        };
        let mut diags = vec![
            mk(RuleId::ConflictingLabels, 0, "b"),
            mk(RuleId::FloatingGate, 500, "a"),
            mk(RuleId::FloatingGate, 0, "z"),
            mk(RuleId::FloatingGate, 0, "a"),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<(&str, i64, &str)> = diags
            .iter()
            .map(|d| {
                let Anchor::At(p) = d.primary.anchor else {
                    unreachable!()
                };
                (d.rule.name(), p.x, d.message.as_str())
            })
            .collect();
        assert_eq!(
            order,
            vec![
                ("floating-gate", 0, "a"),
                ("floating-gate", 0, "z"),
                ("floating-gate", 500, "a"),
                ("conflicting-labels", 0, "b"),
            ]
        );
    }
}
