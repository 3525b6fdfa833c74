//! The result line: one JSON object, last on stdout, with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. [`Outcome::parse`]
//! reads it back, for `--summarize` and the tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line. Values print with every digit Rust's shortest
    /// round-trip formatting gives them.
    ///
    /// # Panics
    /// On a non-finite value, which JSON cannot carry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a result line.
    ///
    /// # Errors
    /// Malformed JSON, a missing or extra top-level key, or a
    /// `correct` flag that disagrees with `failed`.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        let Json::Object(mut top) = value else {
            return Err("result is not an object".into());
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected top-level keys {keys:?}"));
        }
        let count = |v: Option<Json>, key: &str| match v {
            Some(Json::Number(n)) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("{key} is not a whole number")),
        };
        let attempted = count(top.remove("attempted"), "attempted")?;
        let failed = count(top.remove("failed"), "failed")?;
        if top.remove("correct") != Some(Json::Bool(failed == 0)) {
            return Err("correct disagrees with failed".into());
        }
        let Some(Json::Object(entries)) = top.remove("metrics") else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, entry) in entries {
            let Json::Object(mut fields) = entry else {
                return Err(format!("metric {name} is not an object"));
            };
            match (fields.remove("value"), fields.remove("unit")) {
                (Some(Json::Number(value)), Some(Json::String(unit))) if fields.is_empty() => {
                    metrics.push(Metric { name, value, unit });
                }
                _ => return Err(format!("metric {name} needs exactly value and unit")),
            }
        }
        Ok(Self {
            attempted,
            failed,
            metrics,
        })
    }
}

/// The JSON subset the result line uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    String(String),
    Number(f64),
    Bool(bool),
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.s.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            self.ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    /// Strings without escapes: metric names and units never need one.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while let Some(&b) = self.s.get(self.at) {
            match b {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(self.s[start..self.at - 1].to_vec())
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escape at byte {}", self.at)),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.s[start..self.at])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "op_ms_p50".into(),
                    value: 1.203_456_789,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.000_081_27,
                    unit: "s".into(),
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = sample().to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        assert_eq!(Outcome::parse(&line), Ok(sample()));
    }

    #[test]
    fn parses_the_contract_example() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let out = Outcome::parse(line).expect("contract example parses");
        assert_eq!(out.attempted, 1000);
        assert_eq!(out.metrics[0].name, "latency_ms");
        assert_eq!(out.metrics[1].value, 0.8127);
    }

    #[test]
    fn failures_flip_correct() {
        let mut out = sample();
        out.failed = 2;
        let line = out.to_json();
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(Outcome::parse(&line), Ok(out));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "[]",
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": true, "attempted": 1, "failed": 1, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} x"#,
        ] {
            assert!(Outcome::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn non_finite_values_are_refused() {
        let mut out = sample();
        out.metrics[0].value = f64::NAN;
        let _ = out.to_json();
    }
}
