//! Hot-path `clone` fixture: every finding below is intentional and pinned
//! by the integration test. The whole file is hot via the file-level marker.
//
// nm-analyzer: hot_path

pub fn clone_site(s: &String) -> String {
    s.clone() // 1x clone
}

pub fn allowed_clone(s: &String) -> String {
    // nm-analyzer: allow(clone) -- fixture: justified escape
    s.clone()
}

pub fn reasonless_allow(s: &String) -> String {
    // nm-analyzer: allow(clone)
    s.clone()
}

/// Mentions that prose about clone() in comments is ignored, as is
/// "x.clone()" inside string literals, and a `clone` that is not a method
/// call.
pub fn strings_and_comments(clone: u32) -> (&'static str, u32) {
    ("call .clone() here", clone)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = String::from("x");
        assert_eq!(v.clone(), "x"); // not counted: test code
    }
}
