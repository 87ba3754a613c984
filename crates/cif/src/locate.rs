//! Source-location recovery for CIF net-name labels.
//!
//! The parser's [`crate::Command`] values carry no source positions —
//! the extractor never needs them. Diagnostics do: an ERC lint that
//! flags a net wants to point back at the `94` label line that named
//! it. This module re-scans the *text* (comment-aware, counting
//! newlines) and reports where each `94 name x y [layer]` command
//! starts, so an emitter can attach `startLine` regions without the
//! whole AST growing position fields.
//!
//! The mapping is best-effort by design: a label inside a symbol
//! definition is written once but instantiated many times, and the
//! instantiated (transformed) position no longer equals the file
//! coordinates. Consumers therefore match primarily by *name* — the
//! first occurrence of a name is its canonical source site.

use ace_geom::Point;

/// One `94` label command as it appears in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSite {
    /// The label's net name.
    pub name: String,
    /// Position as written (file coordinates, untransformed).
    pub at: Point,
    /// 1-based source line of the command's first token.
    pub line: u32,
}

/// Scans CIF text for `94` label commands, in file order.
///
/// Comments (which nest) are skipped; malformed `94` commands are
/// silently ignored — this is a lookup aid, not a validator (the
/// parser owns error reporting).
///
/// # Examples
///
/// ```
/// use ace_cif::locate::label_sites;
///
/// let sites = label_sites("L NM; B 4 4 0 0;\n94 OUT 0 0 NM;\nE");
/// assert_eq!(sites.len(), 1);
/// assert_eq!(sites[0].name, "OUT");
/// assert_eq!(sites[0].line, 2);
/// ```
pub fn label_sites(src: &str) -> Vec<LabelSite> {
    let mut sites = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    // The scanner walks command by command: skip separators and
    // comments, buffer up to the next ';', and pattern-match the
    // buffer against the `94` form.
    let mut command = String::new();
    let mut command_line = line;
    while let Some(c) = chars.next() {
        match c {
            '\n' => {
                line += 1;
                command.push(' ');
            }
            '(' => {
                // Nested comment: consume to the balancing ')'.
                let mut depth = 1usize;
                for c in chars.by_ref() {
                    match c {
                        '\n' => line += 1,
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
            ';' => {
                if let Some(site) = parse_label(&command, command_line) {
                    sites.push(site);
                }
                command.clear();
            }
            _ => {
                if command.trim().is_empty() && !c.is_whitespace() {
                    command_line = line;
                }
                command.push(c);
            }
        }
    }
    if let Some(site) = parse_label(&command, command_line) {
        sites.push(site);
    }
    sites
}

fn parse_label(command: &str, line: u32) -> Option<LabelSite> {
    let mut tokens = command.split_whitespace();
    if tokens.next()? != "94" {
        return None;
    }
    let name = tokens.next()?.to_string();
    let x: i64 = tokens.next()?.parse().ok()?;
    let y: i64 = tokens.next()?.parse().ok()?;
    Some(LabelSite {
        name,
        at: Point::new(x, y),
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_labels_with_lines_and_positions() {
        let src = "L NM;\nB 400 400 0 0;\n94 VDD 0 200 NM;\n94 GND 0 -200;\nE";
        let sites = label_sites(src);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].name, "VDD");
        assert_eq!(sites[0].at, Point::new(0, 200));
        assert_eq!(sites[0].line, 3);
        assert_eq!(sites[1].name, "GND");
        assert_eq!(sites[1].line, 4);
    }

    #[test]
    fn comments_do_not_confuse_the_scan() {
        let src = "( a comment\nwith ( nested ) lines\n) 94 A 0 0;\n( 94 B 1 1; )\n94 C 2 2;";
        let sites = label_sites(src);
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["A", "C"]);
        assert_eq!(sites[0].line, 3);
        assert_eq!(sites[1].line, 5);
    }

    #[test]
    fn multiline_commands_report_their_first_token_line() {
        let src = "L NM; B 4 4 0 0;\n\n94 OUT\n  0 0\n  NM;\nE";
        let sites = label_sites(src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 3);
    }

    #[test]
    fn malformed_labels_are_ignored() {
        let sites = label_sites("94;\n94 onlyname;\n94 N 1 notanumber;\n94 OK 1 2;");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].name, "OK");
        assert_eq!(sites[0].line, 4);
    }
}
