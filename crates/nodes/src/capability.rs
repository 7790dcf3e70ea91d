//! Node capability profiles (paper Table 1).
//!
//! | Level | System | Capability |
//! |-------|--------|------------|
//! | E1 | cloud | complex ML in R, SQL:2003 with UDF |
//! | E2 | PC in apartment | SQL-92 (the running example additionally executes window/regression aggregates here — see `pc_default` vs `pc_strict_sql92`) |
//! | E3 | appliance | SQL "light" with joins |
//! | E4 | sensor | filter/window, simple selection, stream aggregates |

use std::fmt;

use paradise_sql::analysis::{FeatureSet, SqlFeature};

/// The four levels of the vertical architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// E1 — cloud.
    Cloud,
    /// E2 — PC / local server in the apartment.
    Pc,
    /// E3 — appliance (media center, smart TV, …).
    Appliance,
    /// E4 — sensor in an appliance or the environment.
    Sensor,
}

impl Level {
    /// Paper notation (E1…E4).
    pub fn paper_name(&self) -> &'static str {
        match self {
            Level::Cloud => "E1",
            Level::Pc => "E2",
            Level::Appliance => "E3",
            Level::Sensor => "E4",
        }
    }

    /// Human-readable system name from Table 1.
    pub fn system_name(&self) -> &'static str {
        match self {
            Level::Cloud => "cloud",
            Level::Pc => "PC in apartment",
            Level::Appliance => "appliance in apartment",
            Level::Sensor => "sensor in appliance / environment",
        }
    }

    /// Typical node count for one person's environment (Table 1 column
    /// "Number of nodes"); the cloud count depends on the provider
    /// (`None` = "n for m persons").
    pub fn typical_node_count(&self) -> Option<usize> {
        match self {
            Level::Cloud => None,
            Level::Pc => Some(1),
            Level::Appliance => Some(30),  // "10 – 50"
            Level::Sensor => Some(150),    // "≫ 100"
        }
    }

    /// All levels, lowest (sensor) first.
    pub const BOTTOM_UP: &'static [Level] =
        &[Level::Sensor, Level::Appliance, Level::Pc, Level::Cloud];
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.paper_name(), self.system_name())
    }
}

/// What a node can execute, plus its capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Capability {
    /// SQL features the node's query processor supports.
    pub features: FeatureSet,
    /// Relative CPU power (sensor = 1).
    pub cpu_power: f64,
    /// Usable memory in bytes, for the §3.1 capacity check.
    pub memory_bytes: usize,
    /// Can the node run arbitrary ML / R code (cloud only)?
    pub supports_ml: bool,
    /// Can the node run the final anonymization step A (needs "enough
    /// power", paper §3.2)?
    pub supports_anonymization: bool,
}

impl Capability {
    /// E4 sensor: `SELECT *` over its stream with attribute↔constant
    /// filters. *No projection.*
    pub fn sensor_default() -> Capability {
        Capability {
            features: FeatureSet::from_slice(&[SqlFeature::ConstComparison]),
            cpu_power: 1.0,
            memory_bytes: 64 * 1024, // tens of KiB, microcontroller-class
            supports_ml: false,
            supports_anonymization: false,
        }
    }

    /// E3 appliance: "SQL light with joins": projection, aliasing,
    /// attribute comparisons, grouping/aggregation, simple joins.
    pub fn appliance_default() -> Capability {
        Capability {
            features: FeatureSet::from_slice(&[
                SqlFeature::Projection,
                SqlFeature::Aliasing,
                SqlFeature::ConstComparison,
                SqlFeature::AttrComparison,
                SqlFeature::Arithmetic,
                SqlFeature::Aggregation,
                SqlFeature::GroupBy,
                SqlFeature::Having,
                SqlFeature::Join,
                SqlFeature::Ordering,
            ]),
            cpu_power: 20.0,
            memory_bytes: 256 * 1024 * 1024,
            supports_ml: false,
            supports_anonymization: false,
        }
    }

    /// E2 PC, **paper-compatible** profile: SQL-92 plus the window/
    /// regression aggregates the §4.2 example runs on the local server
    /// (see the README's "Deviations from the paper" on the Table-1/§4.2
    /// discrepancy).
    pub fn pc_default() -> Capability {
        Capability {
            features: Capability::pc_strict_sql92().features.union(&FeatureSet::from_slice(&[
                SqlFeature::WindowFunctions,
                SqlFeature::RegressionAggregates,
            ])),
            cpu_power: 200.0,
            memory_bytes: 8 * 1024 * 1024 * 1024,
            supports_ml: false,
            supports_anonymization: true,
        }
    }

    /// E2 PC, strict SQL-92 (no window functions) — Table 1 verbatim.
    pub fn pc_strict_sql92() -> Capability {
        Capability {
            features: FeatureSet::from_slice(&[
                SqlFeature::Projection,
                SqlFeature::Aliasing,
                SqlFeature::ConstComparison,
                SqlFeature::AttrComparison,
                SqlFeature::Arithmetic,
                SqlFeature::ScalarFunctions,
                SqlFeature::ExtendedPredicates,
                SqlFeature::Aggregation,
                SqlFeature::GroupBy,
                SqlFeature::Having,
                SqlFeature::Distinct,
                SqlFeature::Ordering,
                SqlFeature::Join,
                SqlFeature::Subquery,
                SqlFeature::ExprSubquery,
                SqlFeature::SetOperation,
                SqlFeature::CaseExpression,
                SqlFeature::Cast,
            ]),
            cpu_power: 200.0,
            memory_bytes: 8 * 1024 * 1024 * 1024,
            supports_ml: false,
            supports_anonymization: true,
        }
    }

    /// E1 cloud: everything, including UDFs and the R/ML remainder.
    pub fn cloud_default() -> Capability {
        Capability {
            features: FeatureSet::all(),
            cpu_power: 10_000.0,
            memory_bytes: 512 * 1024 * 1024 * 1024,
            supports_ml: true,
            supports_anonymization: true,
        }
    }

    /// Default capability for a level (paper-compatible profiles).
    pub fn for_level(level: Level) -> Capability {
        match level {
            Level::Cloud => Capability::cloud_default(),
            Level::Pc => Capability::pc_default(),
            Level::Appliance => Capability::appliance_default(),
            Level::Sensor => Capability::sensor_default(),
        }
    }

    /// Can this capability execute a fragment needing `required`?
    pub fn supports(&self, required: &FeatureSet) -> bool {
        self.features.is_superset_of(required)
    }

    /// The features missing for `required`.
    pub fn missing(&self, required: &FeatureSet) -> FeatureSet {
        required.difference(&self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_sql::analysis::block_features;
    use paradise_sql::parse_query;

    fn features_of(sql: &str) -> FeatureSet {
        block_features(&parse_query(sql).unwrap())
    }

    #[test]
    fn sensor_accepts_its_paper_fragment() {
        let cap = Capability::sensor_default();
        assert!(cap.supports(&features_of("SELECT * FROM stream WHERE z < 2")));
    }

    #[test]
    fn sensor_rejects_projection_and_attr_compare() {
        let cap = Capability::sensor_default();
        assert!(!cap.supports(&features_of("SELECT x FROM stream")));
        assert!(!cap.supports(&features_of("SELECT * FROM stream WHERE x > y")));
    }

    #[test]
    fn appliance_accepts_its_paper_fragments() {
        let cap = Capability::appliance_default();
        assert!(cap.supports(&features_of("SELECT x, y, z, t FROM d1 WHERE x > y")));
        assert!(cap.supports(&features_of(
            "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100"
        )));
    }

    #[test]
    fn appliance_rejects_windows() {
        let cap = Capability::appliance_default();
        assert!(!cap.supports(&features_of(
            "SELECT SUM(z) OVER (ORDER BY t) FROM d"
        )));
    }

    #[test]
    fn pc_default_accepts_regression_window() {
        let cap = Capability::pc_default();
        assert!(cap.supports(&features_of(
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3"
        )));
    }

    #[test]
    fn pc_strict_rejects_regression_window() {
        let cap = Capability::pc_strict_sql92();
        assert!(!cap.supports(&features_of(
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3"
        )));
    }

    #[test]
    fn cloud_supports_everything() {
        let cap = Capability::cloud_default();
        assert!(cap.supports(&FeatureSet::all()));
        assert!(cap.supports_ml);
    }

    #[test]
    fn capability_is_monotone_up_the_chain() {
        let sensor = Capability::sensor_default();
        let appliance = Capability::appliance_default();
        let pc = Capability::pc_default();
        let cloud = Capability::cloud_default();
        assert!(appliance.features.is_superset_of(&sensor.features));
        assert!(pc.features.is_superset_of(&appliance.features));
        assert!(cloud.features.is_superset_of(&pc.features));
        assert!(sensor.cpu_power < appliance.cpu_power);
        assert!(appliance.cpu_power < pc.cpu_power);
        assert!(pc.cpu_power < cloud.cpu_power);
    }

    #[test]
    fn missing_features_reported() {
        let cap = Capability::sensor_default();
        let needed = features_of("SELECT x FROM stream WHERE x > y");
        let missing = cap.missing(&needed);
        assert!(missing.contains(SqlFeature::Projection));
        assert!(missing.contains(SqlFeature::AttrComparison));
    }

    #[test]
    fn level_metadata() {
        assert_eq!(Level::Sensor.paper_name(), "E4");
        assert_eq!(Level::Pc.typical_node_count(), Some(1));
        assert_eq!(Level::Cloud.typical_node_count(), None);
        assert_eq!(Level::BOTTOM_UP[0], Level::Sensor);
        assert_eq!(Level::BOTTOM_UP[3], Level::Cloud);
    }
}
