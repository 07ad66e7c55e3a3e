//! Spans recorded by the benchmark around calls into each layer. They are
//! kept in memory and written once, as JSON, when the run ends.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub rep: u32,
}

pub struct Spans {
    epoch: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
    pub rep: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.recs.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.recs.push(SpanRec {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.recs[id].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over the spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.recs.iter().map(|r| r.end_s - r.start_s).collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] -= r.end_s - r.start_s;
            }
        }
        let mut by_name = BTreeMap::new();
        for (r, s) in self.recs.iter().zip(own) {
            *by_name.entry(r.name).or_insert(0.0) += s;
        }
        by_name
    }

    /// How many spans carry `name`.
    pub fn count(&self, name: &str) -> usize {
        self.recs.iter().filter(|r| r.name == name).count()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.recs
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(r.name.to_string())),
                        ("start_s", Json::Num(r.start_s)),
                        ("end_s", Json::Num(r.end_s)),
                        (
                            "parent",
                            r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("rep", Json::Num(r.rep as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_by_name() {
        let mut spans = Spans::new();
        spans.time("outer", |s| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
        });
        let own = spans.self_seconds();
        assert!(own["inner"] >= 0.016);
        assert!(own["outer"] >= 0.004 && own["outer"] < own["inner"]);
        assert_eq!(spans.count("inner"), 2);
        let doc = spans.to_json();
        let recs = doc.as_array().unwrap();
        assert_eq!(recs[0].get("parent"), Some(&Json::Null));
        assert_eq!(recs[2].get("parent"), Some(&Json::Num(0.0)));
    }
}
