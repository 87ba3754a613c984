//! The rule engine: runs every enabled rule over an extracted
//! circuit plus its source layout.
//!
//! The entry points, from lowest to highest level:
//!
//! * [`lint`] — pure function from `(netlist, layout, config)` to a
//!   sorted diagnostic list.
//! * [`lint_extraction`] — the same over an extraction, but timed
//!   and reported: bumps the [`Counter::LintsEmitted`] /
//!   [`Counter::LintTimeNs`] probe counters.
//! * [`extract_library_linted`] / [`extract_text_linted`] — extract
//!   then lint in one call, honouring
//!   [`ace_core::ExtractOptions::lints`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ace_core::{extract_library_probed, CounterProbe, ExtractError, ExtractOptions, Extraction};
use ace_geom::{Layer, LayerMap, Point, Rect, RectIndex};
use ace_layout::probe::{Counter, Lane, Probe};
use ace_layout::{FlatLayout, Library, NullProbe};
use ace_wirelist::{Device, DeviceDim, DeviceKind, NetId, Netlist};

use crate::config::LintConfig;
use crate::diag::{sort_diagnostics, Diagnostic, LintSpan, RuleId};

/// Everything the rules look at, precomputed once per run.
struct Ctx<'a> {
    netlist: &'a Netlist,
    layout: &'a FlatLayout,
    config: &'a LintConfig,
    /// Per-net count of gate terminals.
    gate_attach: Vec<u32>,
    /// Per-net count of source/drain terminals (a capacitor's merged
    /// terminal counts twice).
    sd_attach: Vec<u32>,
    /// Per-net source/drain device lists in CSR form: the devices with
    /// a source or drain on net `n` are
    /// `sd_devices[sd_start[n]..sd_start[n + 1]]`, each once, in
    /// device order.
    sd_start: Vec<usize>,
    sd_devices: Vec<usize>,
    /// Layout label positions per name, sorted and deduplicated —
    /// the backend-stable way to anchor a diagnostic on a net name.
    label_pos: BTreeMap<&'a str, Vec<Point>>,
}

impl<'a> Ctx<'a> {
    fn new(netlist: &'a Netlist, layout: &'a FlatLayout, config: &'a LintConfig) -> Ctx<'a> {
        let n = netlist.net_count();
        let mut gate_attach = vec![0u32; n];
        let mut sd_attach = vec![0u32; n];
        let mut sd_start = vec![0usize; n + 1];
        for d in netlist.devices() {
            gate_attach[d.gate.0 as usize] += 1;
            sd_attach[d.source.0 as usize] += 1;
            sd_attach[d.drain.0 as usize] += 1;
            for net in sd_nets(d) {
                sd_start[net + 1] += 1;
            }
        }
        let mut total = 0;
        for start in &mut sd_start {
            total += *start;
            *start = total;
        }
        let mut fill = sd_start.clone();
        let mut sd_devices = vec![0usize; sd_start[n]];
        for (k, d) in netlist.devices().iter().enumerate() {
            for net in sd_nets(d) {
                sd_devices[fill[net]] = k;
                fill[net] += 1;
            }
        }
        let mut label_pos: BTreeMap<&str, Vec<Point>> = BTreeMap::new();
        for label in layout.labels() {
            label_pos
                .entry(label.name.as_str())
                .or_default()
                .push(label.at);
        }
        for positions in label_pos.values_mut() {
            positions.sort_by_key(|p| (p.x, p.y));
            positions.dedup();
        }
        Ctx {
            netlist,
            layout,
            config,
            gate_attach,
            sd_attach,
            sd_start,
            sd_devices,
            label_pos,
        }
    }

    /// The devices with a source or drain on `net`, each once, in
    /// device order.
    fn sd_devices(&self, net: NetId) -> impl Iterator<Item = &'a Device> + '_ {
        let n = net.0 as usize;
        let devices = self.netlist.devices();
        self.sd_devices[self.sd_start[n]..self.sd_start[n + 1]]
            .iter()
            .map(move |&k| &devices[k])
    }

    /// The canonical (smallest) layout position of a label name.
    fn anchor_for(&self, name: &str) -> Point {
        self.label_pos
            .get(name)
            .and_then(|ps| ps.first().copied())
            .unwrap_or(Point::new(0, 0))
    }

    fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: RuleId,
        message: String,
        primary: LintSpan,
        related: Vec<LintSpan>,
    ) {
        out.push(Diagnostic {
            rule,
            severity: self.config.severity_of(rule),
            message,
            primary,
            related,
        });
    }
}

/// The distinct nets of a device's source and drain, as indexes.
fn sd_nets(d: &Device) -> impl Iterator<Item = usize> {
    let (s, t) = (d.source.0 as usize, d.drain.0 as usize);
    std::iter::once(s).chain((t != s).then_some(t))
}

/// Runs every enabled rule and returns the diagnostics in canonical
/// order (rule, then anchor, then message).
///
/// `layout` must be the flat instantiation of the same design the
/// netlist was extracted from; the geometric rules (`dangling-cut`)
/// and the label anchors read it directly.
///
/// The result is independent of box feed order, band count, and
/// backend: diagnostics anchor only on device locations, label
/// positions, and layout rectangles, never on [`ace_wirelist::NetId`]s.
///
/// # Examples
///
/// ```
/// use ace_layout::{FlatLayout, Library};
/// use ace_lint::{lint, LintConfig, RuleId};
///
/// // A transistor whose gate poly carries no label and connects to
/// // nothing else: the gate floats.
/// let lib = Library::from_cif_text("
///     L ND; B 500 2000 250 1000;
///     L NP; B 1500 500 750 1000;
///     94 A 250 250 ND; 94 B 250 1750 ND;
///     E
/// ")?;
/// let ex = ace_core::extract_library(&lib, "t", Default::default())?;
/// let diags = lint(&ex.netlist, &FlatLayout::from_library(&lib), &LintConfig::new());
/// assert_eq!(diags.len(), 1);
/// assert_eq!(diags[0].rule, RuleId::FloatingGate);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lint(netlist: &Netlist, layout: &FlatLayout, config: &LintConfig) -> Vec<Diagnostic> {
    let ctx = Ctx::new(netlist, layout, config);
    let mut out = Vec::new();
    for rule in RuleId::ALL {
        if rule.is_geometric() || !config.is_enabled(rule) {
            continue;
        }
        match rule {
            RuleId::FloatingGate => floating_gate(&ctx, &mut out),
            RuleId::SupplyShort => supply_short(&ctx, &mut out),
            RuleId::UndrivenNet => undriven_net(&ctx, &mut out),
            RuleId::ZeroWlDevice => zero_wl_device(&ctx, &mut out),
            RuleId::DanglingCut => dangling_cut(&ctx, &mut out),
            RuleId::DepletionPullup => depletion_pullup(&ctx, &mut out),
            RuleId::ConflictingLabels => conflicting_labels(&ctx, &mut out),
            RuleId::OverloadedNet => overloaded_net(&ctx, &mut out),
            // Geometric DRC rules are checked over raw mask geometry
            // by `ace_drc`, not here; skipped above.
            RuleId::MinWidth | RuleId::MinSpacing | RuleId::MinEnclosure | RuleId::MinOverlap => {
                unreachable!("geometric rules are skipped")
            }
        }
    }
    sort_diagnostics(&mut out);
    out
}

fn floating_gate(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for d in ctx.netlist.devices() {
        let gate = ctx.netlist.net(d.gate);
        if gate.names.is_empty() && ctx.sd_attach[d.gate.0 as usize] == 0 {
            ctx.emit(
                out,
                RuleId::FloatingGate,
                format!(
                    "floating gate: {} gate net has no label and no source/drain connection",
                    d.kind.part_name()
                ),
                LintSpan::at(d.location, format!("gate of {}", d.kind.part_name())),
                vec![],
            );
        }
    }
}

fn supply_short(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for (_, net) in ctx.netlist.nets() {
        let mut vdd: Vec<&str> = net
            .names
            .iter()
            .map(String::as_str)
            .filter(|n| ctx.config.is_vdd_name(n))
            .collect();
        let mut gnd: Vec<&str> = net
            .names
            .iter()
            .map(String::as_str)
            .filter(|n| ctx.config.is_gnd_name(n))
            .collect();
        vdd.sort_unstable();
        gnd.sort_unstable();
        if let (Some(&v), Some(&g)) = (vdd.first(), gnd.first()) {
            ctx.emit(
                out,
                RuleId::SupplyShort,
                format!("supply short: labels '{v}' and '{g}' are on the same electrical net"),
                LintSpan::at(ctx.anchor_for(v), format!("'{v}' label here")).named(v),
                vec![LintSpan::at(ctx.anchor_for(g), format!("'{g}' label here")).named(g)],
            );
        }
    }
}

fn undriven_net(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for (id, net) in ctx.netlist.nets() {
        let idx = id.0 as usize;
        if !net.names.is_empty() || ctx.gate_attach[idx] != 0 || ctx.sd_attach[idx] != 1 {
            continue;
        }
        // Exactly one terminal means exactly one device (a capacitor
        // would contribute two); anchor on it.
        let owner = ctx
            .sd_devices(id)
            .min_by_key(|d| (d.location.x, d.location.y));
        if let Some(d) = owner {
            ctx.emit(
                out,
                RuleId::UndrivenNet,
                format!(
                    "undriven net: unnamed net reaches only one source/drain terminal of the {} here",
                    d.kind.part_name()
                ),
                LintSpan::at(d.location, "sole terminal"),
                vec![],
            );
        }
    }
}

fn zero_wl_device(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let min = ctx.config.min_channel_dim;
    for d in ctx.netlist.devices() {
        match d.dim() {
            DeviceDim::Degenerate => ctx.emit(
                out,
                RuleId::ZeroWlDevice,
                format!(
                    "degenerate channel: {} has zero-length source/drain edges (W and L are undefined)",
                    d.kind.part_name()
                ),
                LintSpan::at(d.location, "channel"),
                vec![],
            ),
            DeviceDim::Channel { length, width }
                if d.kind != DeviceKind::Capacitor && (width < min || length < min) =>
            {
                ctx.emit(
                    out,
                    RuleId::ZeroWlDevice,
                    format!(
                        "sub-minimum channel: {} has W={width} L={length} (minimum feature is {min})",
                        d.kind.part_name()
                    ),
                    LintSpan::at(d.location, "channel"),
                    vec![],
                );
            }
            DeviceDim::Channel { .. } => {}
        }
    }
}

fn dangling_cut(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    // Index conducting geometry once; each contact then queries the
    // three indexes. Overlap means *interior* intersection (half-open
    // rects), matching the extractor's connectivity semantics.
    let mut conducting: LayerMap<Vec<Rect>> = LayerMap::default();
    for b in ctx.layout.boxes() {
        if b.layer.is_conducting() {
            conducting[b.layer].push(b.rect);
        }
    }
    let index: LayerMap<RectIndex> = LayerMap::from_fn(|l| RectIndex::new(&conducting[l]));
    let mut hits = Vec::new();
    let mut touches = |layer: Layer, r: &Rect| {
        index[layer].query(r, &mut hits);
        !hits.is_empty()
    };
    for b in ctx.layout.boxes() {
        match b.layer {
            Layer::Cut => {
                let bridged = Layer::CONDUCTING
                    .iter()
                    .filter(|&&l| touches(l, &b.rect))
                    .count();
                if bridged < 2 {
                    ctx.emit(
                        out,
                        RuleId::DanglingCut,
                        format!(
                            "dangling cut: contact overlaps {bridged} conducting layer(s); a cut must bridge two"
                        ),
                        LintSpan::area(b.rect, "contact cut"),
                        vec![],
                    );
                }
            }
            Layer::Buried => {
                let poly = touches(Layer::Poly, &b.rect);
                let diff = touches(Layer::Diffusion, &b.rect);
                if !(poly && diff) {
                    let missing = match (poly, diff) {
                        (false, false) => "neither poly nor diffusion",
                        (true, false) => "poly but not diffusion",
                        (false, true) => "diffusion but not poly",
                        (true, true) => unreachable!(),
                    };
                    ctx.emit(
                        out,
                        RuleId::DanglingCut,
                        format!(
                            "dangling buried contact: overlaps {missing}; it must bridge poly and diffusion"
                        ),
                        LintSpan::area(b.rect, "buried contact"),
                        vec![],
                    );
                }
            }
            _ => {}
        }
    }
}

fn depletion_pullup(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for d in ctx.netlist.devices() {
        if d.kind == DeviceKind::Depletion && d.gate != d.source && d.gate != d.drain {
            ctx.emit(
                out,
                RuleId::DepletionPullup,
                "depletion device is not gate-tied: the gate connects to neither source nor drain"
                    .to_string(),
                LintSpan::at(d.location, "depletion channel"),
                vec![],
            );
        }
    }
}

fn conflicting_labels(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let mut by_name: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    for (id, net) in ctx.netlist.nets() {
        for name in &net.names {
            by_name.entry(name.as_str()).or_default().insert(id.0);
        }
    }
    for (name, ids) in by_name {
        if ids.len() < 2 {
            continue;
        }
        let positions = ctx.label_pos.get(name).cloned().unwrap_or_default();
        let primary_at = positions.first().copied().unwrap_or(Point::new(0, 0));
        let related = positions
            .iter()
            .skip(1)
            .map(|&p| LintSpan::at(p, format!("also '{name}'")).named(name))
            .collect();
        ctx.emit(
            out,
            RuleId::ConflictingLabels,
            format!(
                "conflicting labels: '{name}' names {} distinct nets",
                ids.len()
            ),
            LintSpan::at(primary_at, format!("'{name}' label here")).named(name),
            related,
        );
    }
}

fn overloaded_net(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    use ace_wirelist::parasitics::{net_capacitance_af, ParasiticParams};

    let params = ParasiticParams::nmos();
    let threshold = ctx.config.overload_cap_af_per_drive;
    for (id, net) in ctx.netlist.nets() {
        // Supply rails are driven externally; their (large) wire load
        // is expected.
        if net
            .names
            .iter()
            .any(|n| ctx.config.is_vdd_name(n) || ctx.config.is_gnd_name(n))
        {
            continue;
        }
        let cap_af = net_capacitance_af(&net.parasitics, &params);
        if cap_af <= 0 {
            continue;
        }
        // Total drive strength in milli-(W/L) over channel-terminal
        // devices; anchor on the smallest-location driver, which is
        // backend-stable (never the NetId).
        let mut drive_milli: i64 = 0;
        let mut anchor: Option<Point> = None;
        for d in ctx.sd_devices(id) {
            if d.kind == DeviceKind::Capacitor {
                continue;
            }
            if d.length > 0 {
                drive_milli += d.width * 1000 / d.length;
            }
            if anchor.is_none_or(|p| (d.location.x, d.location.y) < (p.x, p.y)) {
                anchor = Some(d.location);
            }
        }
        let (Some(at), true) = (anchor, drive_milli > 0) else {
            continue;
        };
        if (cap_af as i128) * 1000 > (threshold as i128) * (drive_milli as i128) {
            ctx.emit(
                out,
                RuleId::OverloadedNet,
                format!(
                    "overloaded net: {cap_af} aF of wire load against total driver \
                     strength W/L = {}.{:03}",
                    drive_milli / 1000,
                    drive_milli % 1000
                ),
                LintSpan::at(at, "driver channel here"),
                vec![],
            );
        }
    }
}

/// An extraction bundled with the diagnostics its lint pass produced.
#[derive(Debug, Clone)]
pub struct Linted {
    /// The extraction (netlist + report + optional window interface).
    pub extraction: Extraction,
    /// Sorted ERC diagnostics; empty when linting was disabled.
    pub diagnostics: Vec<Diagnostic>,
}

/// Lints an existing extraction, timing the pass and recording it:
/// the probe receives [`Counter::LintsEmitted`] and
/// [`Counter::LintTimeNs`] on [`Lane::MAIN`].
pub fn lint_extraction(
    extraction: &Extraction,
    layout: &FlatLayout,
    config: &LintConfig,
    probe: &dyn Probe,
) -> Vec<Diagnostic> {
    let start = Instant::now();
    let diagnostics = lint(&extraction.netlist, layout, config);
    let elapsed = start.elapsed();
    probe.add(Lane::MAIN, Counter::LintsEmitted, diagnostics.len() as u64);
    probe.add(Lane::MAIN, Counter::LintTimeNs, elapsed.as_nanos() as u64);
    diagnostics
}

/// Extracts `name` from `lib`, then lints when
/// [`ExtractOptions::lints`] is set (see
/// [`ExtractOptions::with_lints`]). The returned report carries the
/// lint pass's `lints_emitted` and `lint_time`.
pub fn extract_library_linted(
    lib: &Library,
    name: &str,
    options: ExtractOptions,
    config: &LintConfig,
    probe: &dyn Probe,
) -> Result<Linted, ExtractError> {
    let mut extraction = extract_library_probed(lib, name, options, probe)?;
    let diagnostics = if options.lints {
        let layout = FlatLayout::from_library(lib);
        let counters = CounterProbe::new();
        let diagnostics = lint_extraction(&extraction, &layout, config, &(&counters, probe));
        let lint = counters.report();
        (extraction.report.lints_emitted, extraction.report.lint_time) =
            (lint.lints_emitted, lint.lint_time);
        diagnostics
    } else {
        Vec::new()
    };
    Ok(Linted {
        extraction,
        diagnostics,
    })
}

/// [`extract_library_linted`] for CIF text.
pub fn extract_text_linted(
    src: &str,
    options: ExtractOptions,
    config: &LintConfig,
) -> Result<Linted, ExtractError> {
    let lib = Library::from_cif_text(src)?;
    extract_library_linted(&lib, "cif-text", options, config, &NullProbe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_with(src, &LintConfig::new())
    }

    fn run_with(src: &str, config: &LintConfig) -> Vec<Diagnostic> {
        let lib = Library::from_cif_text(src).expect("parse");
        let ex = ace_core::extract_library(&lib, "t", ExtractOptions::default()).expect("extract");
        lint(&ex.netlist, &FlatLayout::from_library(&lib), config)
    }

    /// One vertical-diffusion / horizontal-poly transistor with a
    /// 500x500 channel at (0, 750).
    const TRANSISTOR: &str = "L ND; B 500 2000 250 1000; L NP; B 1500 500 750 1000;";

    #[test]
    fn clean_transistor_is_quiet() {
        let diags = run(&format!(
            "{TRANSISTOR} 94 IN 1250 1000 NP; 94 A 250 250 ND; 94 B 250 1750 ND; E"
        ));
        assert_eq!(diags, vec![], "fully labeled transistor should be clean");
    }

    #[test]
    fn floating_gate_fires_on_unlabeled_unconnected_gate() {
        let diags = run(&format!(
            "{TRANSISTOR} 94 A 250 250 ND; 94 B 250 1750 ND; E"
        ));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::FloatingGate);
        assert_eq!(diags[0].severity, Severity::Error);
        // Anchor is the device's recorded channel location.
        assert_eq!(
            diags[0].render(),
            "error[floating-gate] @ (0, 1250): floating gate: nEnh gate net has no label and no source/drain connection"
        );
    }

    #[test]
    fn supply_short_fires_on_merged_rails() {
        let diags = run("L NM; B 2000 500 1000 250; 94 VDD! 250 250 NM; 94 GND! 1750 250 NM; E");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::SupplyShort);
        assert_eq!(
            diags[0].render(),
            "error[supply-short] @ (250, 250): supply short: labels 'VDD!' and 'GND!' are on the same electrical net"
        );
        assert_eq!(diags[0].related.len(), 1);
        assert_eq!(diags[0].primary.name.as_deref(), Some("VDD!"));
        assert_eq!(diags[0].related[0].name.as_deref(), Some("GND!"));
    }

    #[test]
    fn undriven_net_fires_on_unnamed_stub() {
        let diags = run(&format!(
            "{TRANSISTOR} 94 IN 1250 1000 NP; 94 OUT 250 1750 ND; E"
        ));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::UndrivenNet);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn zero_wl_fires_on_sub_minimum_channel() {
        // 1λ-wide diffusion: W = 250 < 2λ = 500.
        let diags = run("L ND; B 250 2000 125 1000; L NP; B 1500 500 750 1000; \
             94 G 1250 1000 NP; 94 A 125 250 ND; 94 B 125 1750 ND; E");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::ZeroWlDevice);
        assert!(
            diags[0].message.contains("W=250 L=500"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn zero_wl_fires_on_degenerate_device() {
        // The extraction paths guard zero-length edges away, so build
        // the pathological device directly.
        let mut nl = Netlist::new();
        let g = nl.add_net();
        let s = nl.add_net();
        let d = nl.add_net();
        for (id, name) in [(g, "G"), (s, "S"), (d, "D")] {
            nl.add_name(id, name);
        }
        nl.add_device(Device {
            kind: DeviceKind::Enhancement,
            gate: g,
            source: s,
            drain: d,
            length: 0,
            width: 0,
            location: Point::new(1000, 2000),
            channel_geometry: vec![],
        });
        let diags = lint(&nl, &FlatLayout::new(), &LintConfig::new());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::ZeroWlDevice);
        assert!(diags[0].message.contains("degenerate channel"));
        assert_eq!(diags[0].primary.anchor.sort_key().1, 1000);
    }

    #[test]
    fn dangling_cut_fires_on_single_layer_contact() {
        let diags = run("L NM; B 1000 500 500 250; L NC; B 250 250 375 375; 94 M 875 250 NM; E");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::DanglingCut);
        assert_eq!(
            diags[0].render(),
            "warning[dangling-cut] @ (250, 250)-(500, 500): dangling cut: contact overlaps 1 conducting layer(s); a cut must bridge two"
        );
    }

    #[test]
    fn dangling_cut_fires_on_lopsided_buried_contact() {
        let diags = run("L NP; B 500 500 250 250; L NB; B 250 250 250 250; E");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::DanglingCut);
        assert!(
            diags[0].message.contains("poly but not diffusion"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn healthy_cut_is_quiet() {
        let diags = run("L NM; B 1000 500 500 250; L NP; B 1000 500 500 250; \
             L NC; B 250 250 375 375; 94 M 875 250 NM; E");
        assert_eq!(diags, vec![], "metal-to-poly cut should be clean");
    }

    #[test]
    fn depletion_pullup_fires_on_untied_gate() {
        let diags = run(&format!(
            "{TRANSISTOR} L NI; B 1000 1000 250 1000; \
             94 G 1250 1000 NP; 94 S 250 250 ND; 94 D 250 1750 ND; E"
        ));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::DepletionPullup);
    }

    #[test]
    fn conflicting_labels_fires_once_per_name() {
        let diags = run("L NM; B 500 500 250 250; B 500 500 1750 250; \
             94 X 250 250 NM; 94 X 1750 250 NM; E");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::ConflictingLabels);
        assert_eq!(
            diags[0].render(),
            "warning[conflicting-labels] @ (250, 250): conflicting labels: 'X' names 2 distinct nets"
        );
        assert_eq!(diags[0].related.len(), 1);
    }

    #[test]
    fn overloaded_net_fires_on_huge_wire_with_weak_driver() {
        // A minimum-size transistor whose drain runs into an enormous
        // metal plate (160λ x 160λ ≈ 0.8 pF): far beyond what a
        // W/L = 1 channel can charge.
        let src = "L ND; B 500 2000 250 1000; L NP; B 1500 500 750 1000; \
             L NC; B 250 250 250 1875; L NM; B 40000 40000 20250 21750; \
             94 G 1250 1000 NP; 94 S 250 250 ND; 94 OUT 250 1500 ND; E";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::OverloadedNet);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(
            diags[0].message.contains("W/L = 1.000"),
            "{}",
            diags[0].message
        );
        // Raising the threshold silences it.
        let quiet = run_with(src, &LintConfig::new().with_overload_threshold(i64::MAX));
        assert_eq!(quiet, vec![]);
    }

    #[test]
    fn modest_wiring_is_not_overloaded() {
        // The plain labeled transistor from `clean_transistor_is_quiet`
        // carries realistic wiring: no overload at the default
        // threshold.
        let diags = run(&format!(
            "{TRANSISTOR} 94 IN 1250 1000 NP; 94 A 250 250 ND; 94 B 250 1750 ND; E"
        ));
        assert_eq!(diags, vec![]);
    }

    #[test]
    fn allow_disables_and_deny_escalates() {
        let src = format!("{TRANSISTOR} 94 A 250 250 ND; 94 B 250 1750 ND; E");
        let off = run_with(&src, &LintConfig::new().allow(RuleId::FloatingGate));
        assert_eq!(off, vec![]);
        let src = format!("{TRANSISTOR} 94 IN 1250 1000 NP; 94 OUT 250 1750 ND; E");
        let deny = run_with(&src, &LintConfig::new().deny(RuleId::UndrivenNet));
        assert_eq!(deny.len(), 1);
        assert_eq!(deny[0].severity, Severity::Error);
    }

    #[test]
    fn lint_is_insensitive_to_pruning() {
        // A layout with an isolated unlabeled metal scrap: pruning
        // removes its net, diagnostics must not change.
        let src =
            format!("{TRANSISTOR} L NM; B 250 250 5000 5000; 94 A 250 250 ND; 94 B 250 1750 ND; E");
        let lib = Library::from_cif_text(&src).unwrap();
        let ex = ace_core::extract_library(&lib, "t", ExtractOptions::default()).unwrap();
        let layout = FlatLayout::from_library(&lib);
        let before = lint(&ex.netlist, &layout, &LintConfig::new());
        let mut pruned = ex.netlist.clone();
        pruned.prune_floating_nets();
        let after = lint(&pruned, &layout, &LintConfig::new());
        assert_eq!(before, after);
        assert_eq!(before.len(), 1, "{before:?}");
        assert_eq!(before[0].rule, RuleId::FloatingGate);
    }

    #[test]
    fn lint_extraction_times_and_counts() {
        let src = format!("{TRANSISTOR} 94 A 250 250 ND; 94 B 250 1750 ND; E");
        let linted = extract_text_linted(
            &src,
            ExtractOptions::default().with_lints(),
            &LintConfig::new(),
        )
        .unwrap();
        assert_eq!(linted.diagnostics.len(), 1);
        assert_eq!(linted.extraction.report.lints_emitted, 1);
        assert!(linted.extraction.report.lint_time.as_nanos() > 0);
        // Without the option the lint pass is skipped entirely.
        let plain =
            extract_text_linted(&src, ExtractOptions::default(), &LintConfig::new()).unwrap();
        assert_eq!(plain.diagnostics, vec![]);
        assert_eq!(plain.extraction.report.lints_emitted, 0);
    }

    #[test]
    fn counter_probe_carries_lint_totals() {
        let src = format!("{TRANSISTOR} 94 A 250 250 ND; 94 B 250 1750 ND; E");
        let lib = Library::from_cif_text(&src).unwrap();
        let probe = ace_core::CounterProbe::new();
        let linted = extract_library_linted(
            &lib,
            "t",
            ExtractOptions::default().with_lints(),
            &LintConfig::new(),
            &probe,
        )
        .unwrap();
        let report = probe.report();
        assert_eq!(report.lints_emitted, linted.diagnostics.len() as u64);
        assert!(report.lint_time.as_nanos() > 0);
    }

    #[test]
    fn unnamed_net_id_never_leaks_into_output() {
        // NetId Display is "N<index>"; rule messages must never embed
        // it (spans would then differ across backends).
        let src = format!("{TRANSISTOR} E");
        let lib = Library::from_cif_text(&src).unwrap();
        let ex = ace_core::extract_library(&lib, "t", ExtractOptions::default()).unwrap();
        let diags = lint(
            &ex.netlist,
            &FlatLayout::from_library(&lib),
            &LintConfig::new(),
        );
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(
                !d.message.contains(" N0") && !d.message.contains(" N1"),
                "message leaks a net id: {}",
                d.message
            );
        }
    }
}
