//! `manic export --format csv` writes RFC 4180 rows: a series key contains
//! commas, so its field is quoted and every row splits into exactly the
//! header's three fields.

use std::process::Command;

/// Split one RFC 4180 record into its fields: a field wrapped in double
/// quotes may hold commas, and `""` inside it is one quote.
fn fields(row: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let (mut quoted, mut chars) = (false, row.chars().peekable());
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                out.last_mut().unwrap().push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => out.push(String::new()),
            _ => out.last_mut().unwrap().push(c),
        }
    }
    assert!(!quoted, "unterminated quoted field in {row:?}");
    out
}

#[test]
fn csv_export_rows_have_three_rfc4180_fields() {
    let out = Command::new(env!("CARGO_BIN_EXE_manic"))
        .args(["export", "--world", "toy", "--vp", "acme-nyc", "--hours", "1", "--format", "csv"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("series,t,v"));
    let mut rows = 0;
    for line in lines {
        let f = fields(line);
        assert_eq!(f.len(), 3, "{line:?} splits into {f:?}");
        assert!(f[0].starts_with("tslp,") && f[0].contains("vp=acme-nyc"), "{line:?}");
        f[1].parse::<i64>().unwrap_or_else(|e| panic!("{line:?}: t: {e}"));
        f[2].parse::<f64>().unwrap_or_else(|e| panic!("{line:?}: v: {e}"));
        rows += 1;
    }
    assert!(rows > 0, "no samples exported");
}
