//! SARIF 2.1.0 output and a structural validator for it.
//!
//! The emitter lays its document out by hand (the workspace is
//! offline; no serde) and escapes strings with the workspace's one
//! JSON module, [`ace_core::json`]. To keep it honest,
//! [`validate_sarif`] re-parses emitted JSON with that module and
//! checks the shape the SARIF 2.1.0 schema requires of a minimal
//! static-analysis log: `version`, `$schema`, one run with a named
//! driver and a rule table, and results whose
//! `ruleId`/`level`/`message`/`locations` are well-formed. The corpus
//! golden tests run the validator over real `acelint` and `acedrc`
//! output.
//!
//! Region mapping: a CIF layout has no meaningful "column", so a
//! result's `region` carries only `startLine` — the line of the first
//! `94` label command naming the span's net, looked up in one table
//! per case built from [`ace_cif::label_sites`] when the CIF source
//! text is available. Spans without a net name (device locations,
//! contact boxes) carry their chip coordinates in the result's
//! `properties.anchor` bag instead.

use std::collections::HashMap;
use std::fmt::Write as _;

use ace_core::json::{quote, write_quoted, Json};

use crate::diag::{Diagnostic, LintSpan, RuleId};

/// Diagnostics for one artifact (CIF file) of a SARIF report.
#[derive(Debug, Clone, Copy)]
pub struct SarifCase<'a> {
    /// Artifact URI (usually the CIF file path as given on the CLI).
    pub uri: &'a str,
    /// The CIF source text, when available — enables `startLine`
    /// regions for spans that carry a net name.
    pub source: Option<&'a str>,
    /// The diagnostics to report, in canonical order.
    pub diagnostics: &'a [Diagnostic],
}

/// The `$schema` URI emitted in every report.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders a complete SARIF 2.1.0 log with one run covering all
/// `cases`.
pub fn sarif_report(cases: &[SarifCase]) -> String {
    let total: usize = cases.iter().map(|c| c.diagnostics.len()).sum();
    // One buffer for the whole log, sized so a typical report never
    // regrows (and so never copies itself) on the way.
    let mut out = String::with_capacity(4096 + 512 * total);
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": {},\n", quote(SARIF_SCHEMA)));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"acelint\",\n");
    out.push_str(&format!(
        "          \"version\": {},\n",
        quote(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"informationUri\": \"https://example.invalid/ace\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in RuleId::ALL.into_iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": {}}}}}{}\n",
            quote(rule.name()),
            quote(rule.short_description()),
            quote(rule.default_severity().name()),
            if i + 1 < RuleId::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let mut emitted = 0usize;
    for case in cases {
        let lines = label_lines(case);
        for diag in case.diagnostics {
            emitted += 1;
            render_result(&mut out, case.uri, &lines, diag, emitted < total);
        }
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// The source line of each label name's first `94` command in the
/// case, read only when some span in the case names a net.
fn label_lines(case: &SarifCase) -> HashMap<String, u32> {
    let mut lines = HashMap::new();
    let named = case
        .diagnostics
        .iter()
        .any(|d| d.primary.name.is_some() || d.related.iter().any(|s| s.name.is_some()));
    if let (true, Some(src)) = (named, case.source) {
        for site in ace_cif::label_sites(src) {
            lines.entry(site.name).or_insert(site.line);
        }
    }
    lines
}

fn render_result(
    out: &mut String,
    uri: &str,
    lines: &HashMap<String, u32>,
    diag: &Diagnostic,
    comma: bool,
) {
    out.push_str("        {\n          \"ruleId\": ");
    write_quoted(diag.rule.name(), out);
    let _ = write!(
        out,
        ",\n          \"ruleIndex\": {},\n          \"level\": ",
        diag.rule.index()
    );
    write_quoted(diag.severity.name(), out);
    out.push_str(",\n          \"message\": {\"text\": ");
    write_quoted(&diag.message, out);
    out.push_str("},\n          \"locations\": [");
    render_location(out, uri, lines, &diag.primary, false);
    out.push_str("],\n");
    if !diag.related.is_empty() {
        out.push_str("          \"relatedLocations\": [");
        for (i, span) in diag.related.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_location(out, uri, lines, span, true);
        }
        out.push_str("],\n");
    }
    // An anchor renders as digits and punctuation, which JSON strings
    // take unescaped.
    let _ = writeln!(
        out,
        "          \"properties\": {{\"anchor\": \"{}\"}}",
        diag.primary.anchor
    );
    out.push_str(if comma { "        },\n" } else { "        }\n" });
}

fn render_location(
    out: &mut String,
    uri: &str,
    lines: &HashMap<String, u32>,
    span: &LintSpan,
    with_message: bool,
) {
    out.push_str("{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ");
    write_quoted(uri, out);
    out.push('}');
    if let Some(line) = span.name.as_deref().and_then(|name| lines.get(name)) {
        let _ = write!(out, ", \"region\": {{\"startLine\": {line}}}");
    }
    out.push('}');
    if with_message {
        out.push_str(", \"message\": {\"text\": ");
        write_quoted(&span.label, out);
        out.push('}');
    }
    out.push('}');
}

/// [`sarif_report`] for a single artifact.
pub fn to_sarif(uri: &str, source: Option<&str>, diagnostics: &[Diagnostic]) -> String {
    sarif_report(&[SarifCase {
        uri,
        source,
        diagnostics,
    }])
}

// ---------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------

/// Checks that `json` parses and has the shape of a SARIF 2.1.0
/// static-analysis log. Returns the first problem found.
///
/// Parsing uses [`ace_core::json`], which reads integers only: a log
/// containing a fraction or exponent anywhere is rejected, even where
/// the SARIF schema would allow one. Neither emitter in this
/// workspace writes one.
pub fn validate_sarif(json: &str) -> Result<(), String> {
    let root = Json::parse(json).map_err(|e| e.to_string())?;
    if root.get("$schema").and_then(Json::as_str).is_none() {
        return Err("missing string $schema".into());
    }
    match root.get("version").and_then(Json::as_str) {
        Some("2.1.0") => {}
        other => return Err(format!("version must be \"2.1.0\", got {other:?}")),
    }
    let runs = root
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("runs array is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        validate_run(run).map_err(|e| format!("runs[{i}]: {e}"))?;
    }
    Ok(())
}

fn validate_run(run: &Json) -> Result<(), String> {
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("missing tool.driver")?;
    if driver.get("name").and_then(Json::as_str).is_none() {
        return Err("missing tool.driver.name".into());
    }
    let rules = driver
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("missing tool.driver.rules array")?;
    let mut rule_ids = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let id = rule
            .get("id")
            .and_then(Json::as_str)
            .ok_or(format!("rules[{i}]: missing id"))?;
        if rule
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Json::as_str)
            .is_none()
        {
            return Err(format!("rules[{i}]: missing shortDescription.text"));
        }
        rule_ids.push(id.to_string());
    }
    let results = run
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    for (i, result) in results.iter().enumerate() {
        validate_result(result, &rule_ids).map_err(|e| format!("results[{i}]: {e}"))?;
    }
    Ok(())
}

fn validate_result(result: &Json, rule_ids: &[String]) -> Result<(), String> {
    let rule_id = result
        .get("ruleId")
        .and_then(Json::as_str)
        .ok_or("missing ruleId")?;
    if !rule_ids.iter().any(|r| r == rule_id) {
        return Err(format!("ruleId {rule_id:?} not in driver rule table"));
    }
    match result.get("level").and_then(Json::as_str) {
        Some("none" | "note" | "warning" | "error") => {}
        other => return Err(format!("bad level {other:?}")),
    }
    if result
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .is_none()
    {
        return Err("missing message.text".into());
    }
    let locations = result
        .get("locations")
        .and_then(Json::as_arr)
        .ok_or("missing locations array")?;
    if locations.is_empty() {
        return Err("locations array is empty".into());
    }
    for (i, loc) in locations.iter().enumerate() {
        validate_location(loc).map_err(|e| format!("locations[{i}]: {e}"))?;
    }
    if let Some(related) = result.get("relatedLocations").and_then(Json::as_arr) {
        for (i, loc) in related.iter().enumerate() {
            validate_location(loc).map_err(|e| format!("relatedLocations[{i}]: {e}"))?;
        }
    }
    Ok(())
}

fn validate_location(loc: &Json) -> Result<(), String> {
    let phys = loc
        .get("physicalLocation")
        .ok_or("missing physicalLocation")?;
    if phys
        .get("artifactLocation")
        .and_then(|a| a.get("uri"))
        .and_then(Json::as_str)
        .is_none()
    {
        return Err("missing artifactLocation.uri".into());
    }
    if let Some(region) = phys.get("region") {
        match region.get("startLine").and_then(Json::as_int) {
            Some(line) if line >= 1 => {}
            other => return Err(format!("bad region.startLine {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{LintSpan, Severity};
    use ace_geom::{Point, Rect};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: RuleId::SupplyShort,
                severity: Severity::Error,
                message: "supply short: labels 'VDD!' and 'GND!' are on the same electrical net"
                    .into(),
                primary: LintSpan::at(Point::new(250, 250), "'VDD!' label here").named("VDD!"),
                related: vec![
                    LintSpan::at(Point::new(1750, 250), "'GND!' label here").named("GND!")
                ],
            },
            Diagnostic {
                rule: RuleId::DanglingCut,
                severity: Severity::Warning,
                message: "dangling cut with a \"quoted\"\nand multiline twist \\o/".into(),
                primary: LintSpan::area(Rect::new(0, 0, 250, 250), "contact cut"),
                related: vec![],
            },
        ]
    }

    #[test]
    fn emitted_sarif_validates() {
        let src = "L NM; B 2000 500 1000 250;\n94 VDD! 250 250 NM;\n94 GND! 1750 250 NM;\nE";
        let json = to_sarif("chip.cif", Some(src), &sample());
        validate_sarif(&json).expect("emitted SARIF must validate");
        // The named span maps to its `94` source line.
        assert!(json.contains("\"startLine\": 2"), "{json}");
        // Escapes survive a round-trip through the parser.
        let parsed = Json::parse(&json).unwrap();
        let results = parsed.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(results.len(), 2);
        let text = results[1]
            .get("message")
            .unwrap()
            .get("text")
            .unwrap()
            .as_str()
            .unwrap();
        assert_eq!(
            text,
            "dangling cut with a \"quoted\"\nand multiline twist \\o/"
        );
    }

    #[test]
    fn regions_come_from_each_names_first_label_line() {
        let named = |name: &str| Diagnostic {
            rule: RuleId::ConflictingLabels,
            severity: Severity::Warning,
            message: format!("'{name}'"),
            primary: LintSpan::at(Point::new(0, 0), "label here").named(name),
            related: vec![],
        };
        let diags = [named("X"), named("UNLABELED")];
        let src = "L NM; B 500 500 250 250;\n94 X 0 0 NM;\n94 X 250 250 NM;\nE";
        let regions = |source: Option<&str>| {
            let json = to_sarif("chip.cif", source, &diags);
            validate_sarif(&json).unwrap();
            Json::parse(&json)
                .unwrap()
                .get("runs")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|r| {
                    r.get("locations").unwrap().as_arr().unwrap()[0]
                        .get("physicalLocation")
                        .unwrap()
                        .get("region")
                        .map(|g| g.get("startLine").unwrap().as_int().unwrap())
                })
                .collect::<Vec<_>>()
        };
        // Two `94` lines name X: the first wins. No line names
        // UNLABELED: no region.
        assert_eq!(regions(Some(src)), vec![Some(2), None]);
        // Without source text no span gets a region.
        assert_eq!(regions(None), vec![None, None]);
    }

    #[test]
    fn empty_report_validates() {
        let json = sarif_report(&[]);
        validate_sarif(&json).expect("empty report is still a valid log");
        assert!(json.contains("\"version\": \"2.1.0\""));
    }

    #[test]
    fn multi_case_report_keeps_uris_apart() {
        let a = sample();
        let json = sarif_report(&[
            SarifCase {
                uri: "a.cif",
                source: None,
                diagnostics: &a[..1],
            },
            SarifCase {
                uri: "b.cif",
                source: None,
                diagnostics: &a[1..],
            },
        ]);
        validate_sarif(&json).unwrap();
        assert!(json.contains("\"uri\": \"a.cif\""));
        assert!(json.contains("\"uri\": \"b.cif\""));
    }

    #[test]
    fn validator_rejects_malformed_logs() {
        assert!(validate_sarif("not json").is_err());
        assert!(validate_sarif("{}").unwrap_err().contains("$schema"));
        let wrong_version = r#"{"$schema": "s", "version": "2.0.0", "runs": []}"#;
        assert!(validate_sarif(wrong_version).unwrap_err().contains("2.1.0"));
        let no_runs = r#"{"$schema": "s", "version": "2.1.0", "runs": []}"#;
        assert!(validate_sarif(no_runs).unwrap_err().contains("empty"));
        let bad_level = r#"{"$schema": "s", "version": "2.1.0", "runs": [{
            "tool": {"driver": {"name": "t", "rules": [
                {"id": "r", "shortDescription": {"text": "d"}}]}},
            "results": [{"ruleId": "r", "level": "fatal",
                "message": {"text": "m"},
                "locations": [{"physicalLocation": {"artifactLocation": {"uri": "u"}}}]}]}]}"#;
        assert!(validate_sarif(bad_level).unwrap_err().contains("level"));
        let unknown_rule = bad_level
            .replace("\"fatal\"", "\"error\"")
            .replace("\"ruleId\": \"r\"", "\"ruleId\": \"mystery\"");
        assert!(validate_sarif(&unknown_rule)
            .unwrap_err()
            .contains("not in driver rule table"));
        let bad_line = bad_level.replace("\"fatal\"", "\"error\"").replace(
            "{\"artifactLocation\": {\"uri\": \"u\"}}",
            "{\"artifactLocation\": {\"uri\": \"u\"}, \"region\": {\"startLine\": 0}}",
        );
        assert!(validate_sarif(&bad_line).unwrap_err().contains("startLine"));
        let fractional_line = bad_line.replace("\"startLine\": 0", "\"startLine\": 2.0");
        assert!(validate_sarif(&fractional_line)
            .unwrap_err()
            .contains("integers"));
    }
}
