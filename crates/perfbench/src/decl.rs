//! The benchmark's declaration, read from the root `BENCHMARK.json`: the
//! workloads, the end-to-end metrics with their bounds, and the
//! per-layer metrics. It is compiled in, so names, units, directions and
//! bounds have one source, and a run that emits anything else is a bug.

use crate::json::Json;

/// The declaration file, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Decl {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Decl {
    /// The compiled-in declaration.
    pub fn load() -> Decl {
        Decl::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid (checked by the smoke test)")
    }

    pub fn parse(text: &str) -> Result<Decl, String> {
        let v = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            v.get(key)
                .ok_or_else(|| format!("missing {key:?}"))?
                .as_arr()
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: m.str_at("name")?.to_string(),
                        unit: m.str_at("unit")?.to_string(),
                        higher_is_better: match m.str_at("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("bad \"better\": {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Decl {
            run_seconds: v.num_at("run_seconds")?,
            workloads: v
                .get("workloads")
                .ok_or("missing \"workloads\"")?
                .as_arr()
                .iter()
                .map(|w| w.str_at("name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declaration of a metric of either kind.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
