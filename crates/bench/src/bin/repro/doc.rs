//! The one JSON writer: every `BENCH_*.json` file is a [`Doc`].
//!
//! One layout rule for all of them. The root, and every container that
//! holds an object at any depth, puts one member per line, indented two
//! more spaces; every other container goes on one line, joined by `, `.
//! Keys are followed by `": "` and the file ends in a newline. A float is
//! printed with the decimals it was given ([`float`]).

/// A JSON value: a printed scalar, an object or a list.
pub enum Json {
    Lit(String),
    Obj(Doc),
    List(Vec<Json>),
}

/// A JSON object; members keep their order.
pub struct Doc(pub Vec<(&'static str, Json)>);

/// `json! { "key": value, ... }` — a [`Doc`], each value taken `Into<Json>`.
macro_rules! json {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::doc::Doc(vec![$(($key, $crate::doc::Json::from($value))),*])
    };
}
pub(crate) use json;

/// `x` printed with `decimals` digits after the point.
pub fn float(x: f64, decimals: usize) -> Json {
    Json::Lit(format!("{x:.decimals$}"))
}

/// Each of `xs` printed with `decimals` digits after the point.
pub fn floats(xs: impl IntoIterator<Item = f64>, decimals: usize) -> Json {
    Json::List(xs.into_iter().map(|x| float(x, decimals)).collect())
}

macro_rules! from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Lit(x.to_string())
            }
        }
    )*};
}
from_display!(u64, i64, usize, bool);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Lit(format!("{s:?}"))
    }
}

impl From<Doc> for Json {
    fn from(doc: Doc) -> Self {
        Json::Obj(doc)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Self {
        Json::List(xs.into_iter().map(Into::into).collect())
    }
}

impl Doc {
    /// The file's bytes.
    pub fn render(self) -> String {
        Json::Obj(self).render(0) + "\n"
    }
}

impl Json {
    /// Whether this value is an object or holds one at any depth.
    fn has_object(&self) -> bool {
        match self {
            Json::Lit(_) => false,
            Json::Obj(_) => true,
            Json::List(xs) => xs.iter().any(Json::has_object),
        }
    }

    /// The value as it sits `indent` spaces deep: the root (`indent` 0)
    /// and every container holding an object put one member per line.
    fn render(&self, indent: usize) -> String {
        let (open, close, members): (_, _, Vec<(String, &Json)>) = match self {
            Json::Lit(s) => return s.clone(),
            Json::Obj(Doc(m)) => {
                ('{', '}', m.iter().map(|(k, v)| (format!("\"{k}\": "), v)).collect())
            }
            Json::List(xs) => ('[', ']', xs.iter().map(|v| (String::new(), v)).collect()),
        };
        let items: Vec<String> =
            members.iter().map(|(key, v)| key.clone() + &v.render(indent + 2)).collect();
        if indent > 0 && !members.iter().any(|(_, v)| v.has_object()) {
            return format!("{open}{}{close}", items.join(", "));
        }
        let pad = " ".repeat(indent + 2);
        format!("{open}\n{pad}{}\n{}{close}", items.join(&format!(",\n{pad}")), &pad[2..])
    }
}
