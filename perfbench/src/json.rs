//! Minimal JSON: an ordered object builder for results, and field
//! scanners for the server's flat JSON replies.

/// An ordered JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A number with every digit Rust's shortest round-trip form gives;
/// non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::default()
    }

    fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a number field.
    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, number(v))
    }

    /// Adds a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, quote(v))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, v.to_string())
    }

    /// Adds a nested object.
    pub fn obj_field(self, key: &str, v: Json) -> Self {
        self.raw(key, v.render())
    }

    /// Adds an array of pre-rendered JSON values.
    pub fn arr(self, key: &str, items: &[String]) -> Self {
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}:{}", quote(k), v)).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The raw text of `"key":<value>` in a flat JSON object: a string
/// value without its quotes, or a scalar up to the next `,`/`}`.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    if let Some(s) = rest.strip_prefix('"') {
        let end = s.find('"')?;
        Some(&s[..end])
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// [`field`] parsed as an unsigned integer.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    field(body, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_scans_flat_objects() {
        let j = Json::obj().num("a", 1.5).str("b", "x\"y").bool("c", true).render();
        assert_eq!(j, r#"{"a":1.5,"b":"x\"y","c":true}"#);
        let reply = r#"{"stream":3,"detections":2,"served_by":"Ensemble","drift":false}"#;
        assert_eq!(field_u64(reply, "detections"), Some(2));
        assert_eq!(field(reply, "served_by"), Some("Ensemble"));
        assert_eq!(field(reply, "drift"), Some("false"));
        assert_eq!(field(reply, "missing"), None);
        assert_eq!(number(f64::INFINITY), "null");
    }
}
