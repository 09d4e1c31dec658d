//! The figures' JSON records: a tiny value builder, the one layout
//! [`crate::write_record`] serializes, and the one percentile rule every
//! figure reports latencies with.
//!
//! The workspace takes no serialization dependency, so a record is
//! built as a [`Json`] tree and rendered here. Objects whose values are
//! all scalars (or arrays of scalars) print on one line; everything
//! else prints one entry per line, so a record's result rows read as a
//! table.

/// One JSON value of a figure record.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A measurement printed with a fixed number of decimals; a
    /// non-finite value prints as `null`.
    Num(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields print in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// A measurement with `decimals` digits after the point.
pub fn num(value: f64, decimals: usize) -> Json {
    Json::Num(value, decimals)
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key, value.into())),
            other => panic!("field {key:?} added to a non-object {other:?}"),
        }
        self
    }

    /// Prints on one line: a scalar, an array of scalars, or an object
    /// whose values are scalars or arrays of scalars.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(fields) => fields.iter().all(|(_, v)| match v {
                Json::Obj(_) => false,
                v => v.is_flat(),
            }),
            _ => true,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The full text of the record of `figure`: an object that opens with
/// the `"figure"` and `"quick"` fields, then `body`'s fields, one per
/// line, newline-terminated.
///
/// # Panics
/// If `body` is not an object.
pub fn render_record(figure: &str, quick: bool, body: Json) -> String {
    let Json::Obj(fields) = body else {
        panic!("a record body is an object, got {body:?}");
    };
    let root = Json::Obj(
        [("figure", figure.into()), ("quick", quick.into())]
            .into_iter()
            .chain(fields)
            .collect(),
    );
    let mut out = String::new();
    render(&mut out, &root, 0, false);
    out.push('\n');
    out
}

/// Appends `v` at nesting depth `indent`: on one line if `inline`,
/// otherwise one entry per line, each child inline if it is flat.
fn render(out: &mut String, v: &Json, indent: usize, inline: bool) {
    let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => return out.push_str(&n.to_string()),
        Json::Num(x, decimals) if x.is_finite() => return out.push_str(&format!("{x:.decimals$}")),
        Json::Num(..) => return out.push_str("null"),
        Json::Str(s) => return escape(out, s),
        Json::Arr(items) => ('[', ']', items.iter().map(|j| (None, j)).collect()),
        Json::Obj(fields) => (
            '{',
            '}',
            fields.iter().map(|(k, j)| (Some(*k), j)).collect(),
        ),
    };
    let pad = " ".repeat(indent + 2);
    out.push(open);
    for (i, (key, value)) in entries.into_iter().enumerate() {
        match (inline, i) {
            (true, 0) => {}
            (true, _) => out.push_str(", "),
            (false, 0) => out.push_str(&format!("\n{pad}")),
            (false, _) => out.push_str(&format!(",\n{pad}")),
        }
        if let Some(key) = key {
            escape(out, key);
            out.push_str(": ");
        }
        render(out, value, indent + 2, value.is_flat());
    }
    if !inline {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The `p`-quantile of the ascending samples `sorted` by the
/// nearest-rank rule: the sample at rank `ceil(n·p)` (1-based, clamped
/// to `1..=n`), so p50 of four samples is the second and p99 of a
/// hundred is the 99th. `NaN` (written as `null`) when there are no
/// samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's bytes for one small record: field order as built,
    /// fixed decimals, the `"quick"` flag, escaping, one-line rows and
    /// one-entry-per-line blocks.
    #[test]
    fn record_bytes_are_pinned() {
        let body = Json::obj()
            .field("note", "say \"hi\"\\\n\u{1}")
            .field("sizes", vec![10usize, 20])
            .field(
                "results",
                vec![
                    Json::obj()
                        .field("n", 10usize)
                        .field("ms", num(1.23456, 3))
                        .field("ok", true),
                    Json::obj()
                        .field("n", 20usize)
                        .field("ms", num(f64::NAN, 3))
                        .field("ok", false),
                ],
            )
            .field(
                "nested",
                Json::obj()
                    .field("rate", num(0.5, 1))
                    .field("rows", vec![Json::obj().field("x", 1u64)]),
            );
        assert_eq!(
            render_record("fig-test", true, body),
            "{\n  \"figure\": \"fig-test\",\n  \"quick\": true,\n  \
             \"note\": \"say \\\"hi\\\"\\\\\\n\\u0001\",\n  \"sizes\": [10, 20],\n  \
             \"results\": [\n    {\"n\": 10, \"ms\": 1.235, \"ok\": true},\n    \
             {\"n\": 20, \"ms\": null, \"ok\": false}\n  ],\n  \
             \"nested\": {\n    \"rate\": 0.5,\n    \"rows\": [\n      {\"x\": 1}\n    ]\n  }\n}\n"
        );
        assert!(render_record("fig-test", false, Json::obj()).contains("\"quick\": false"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 0.0), 1.0);
        assert_eq!(percentile(&four, 0.5), 2.0);
        assert_eq!(percentile(&four, 0.75), 3.0);
        assert_eq!(percentile(&four, 0.99), 4.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[7.0, 8.0, 9.0], 0.5), 8.0, "median of three");
        assert!(percentile(&[], 0.5).is_nan());
    }
}
