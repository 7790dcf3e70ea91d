//! Reading and writing policies in the PP4SE XML format of paper
//! Figure 4, plus the exact Figure 4 document as a constant and as the
//! policy it parses to.

use paradise_sql::parse_expr;

use crate::error::{PolicyError, PolicyResult};
use crate::model::{
    AggregationSpec, AttributeRule, DpConfig, ModulePolicy, Policy, StreamSettings,
};
use crate::xml::{parse_xml, XmlNode};

/// The privacy policy of paper Figure 4, verbatim (entities included).
pub const FIG4_POLICY_XML: &str = r#"<module module_ID="ActionFilter">
  <attributeList>
    <attribute name="x">
      <allow>true</allow>
      <condition>
        <atomicCondition>
          x&gt;y
        </atomicCondition>
      </condition>
    </attribute>
    <attribute name="y">
      <allow>true</allow>
    </attribute>
    <attribute name="z">
      <allow>true</allow>
      <condition>
        <atomicCondition>
          z&lt;2
        </atomicCondition>
      </condition>
      <aggregation>
        <aggregationType>
          AVG
        </aggregationType>
        <groupBy>x, y</groupBy>
        <having>SUM(z)&gt;100</having>
      </aggregation>
    </attribute>
    <attribute name="t">
      <allow>true</allow>
    </attribute>
  </attributeList>
</module>
"#;

/// The Figure 4 policy built programmatically: the reference policy of
/// the tests and the experiments, equal to [`FIG4_POLICY_XML`] parsed.
pub fn figure4_policy() -> Policy {
    let mut m = ModulePolicy::new("ActionFilter");
    m.attributes.push(
        AttributeRule::allowed("x").with_condition(parse_expr("x > y").expect("static")),
    );
    m.attributes.push(AttributeRule::allowed("y"));
    m.attributes.push(
        AttributeRule::allowed("z")
            .with_condition(parse_expr("z < 2").expect("static"))
            .with_aggregation(
                AggregationSpec::new("AVG")
                    .group_by(&["x", "y"])
                    .having(parse_expr("SUM(z) > 100").expect("static")),
            ),
    );
    m.attributes.push(AttributeRule::allowed("t"));
    Policy::single(m)
}

/// Parse a policy document. The root may be a single `<module>` (like
/// Figure 4) or a `<policy>` wrapping several modules.
pub fn parse_policy(xml: &str) -> PolicyResult<Policy> {
    let root = parse_xml(xml)?;
    match root.name.as_str() {
        "module" => Ok(Policy::single(parse_module(&root)?)),
        "policy" => {
            let mut modules = Vec::new();
            for m in root.children_named("module") {
                modules.push(parse_module(m)?);
            }
            if modules.is_empty() {
                return Err(PolicyError::Structure(
                    "<policy> contains no <module> elements".into(),
                ));
            }
            Ok(Policy { modules })
        }
        other => Err(PolicyError::Structure(format!(
            "expected <module> or <policy> root, found <{other}>"
        ))),
    }
}

fn parse_module(node: &XmlNode) -> PolicyResult<ModulePolicy> {
    let module_id = node
        .attr("module_ID")
        .or_else(|| node.attr("module_id"))
        .ok_or_else(|| PolicyError::Structure("<module> lacks module_ID attribute".into()))?
        .to_string();
    let mut module = ModulePolicy::new(module_id);

    let attr_list = node
        .child("attributeList")
        .ok_or_else(|| PolicyError::Structure("<module> lacks <attributeList>".into()))?;
    for attr in attr_list.children_named("attribute") {
        module.attributes.push(parse_attribute(attr)?);
    }

    if let Some(stream) = node.child("stream") {
        module.stream = Some(parse_stream(stream)?);
    }
    if let Some(dp) = node.child("dp") {
        module.dp = Some(parse_dp(dp)?);
    }
    Ok(module)
}

fn parse_dp(node: &XmlNode) -> PolicyResult<DpConfig> {
    let field = |name: &str| -> PolicyResult<f64> {
        let t = node.child_text(name).ok_or_else(|| {
            PolicyError::Structure(format!("<dp> lacks <{name}>"))
        })?;
        t.trim()
            .parse::<f64>()
            .map_err(|_| PolicyError::Structure(format!("bad <{name}> value {t:?}")))
    };
    let opt = |name: &str, default: f64| -> PolicyResult<f64> {
        match node.child_text(name) {
            None => Ok(default),
            Some(t) => t.trim().parse::<f64>().map_err(|_| {
                PolicyError::Structure(format!("bad <{name}> value {t:?}"))
            }),
        }
    };
    Ok(DpConfig {
        epsilon_per_tick: field("epsilonPerTick")?,
        budget: field("budget")?,
        clamp_lo: opt("clampLo", f64::NEG_INFINITY)?,
        clamp_hi: opt("clampHi", f64::INFINITY)?,
    })
}

fn parse_attribute(node: &XmlNode) -> PolicyResult<AttributeRule> {
    let name = node
        .attr("name")
        .ok_or_else(|| PolicyError::Structure("<attribute> lacks name attribute".into()))?
        .to_string();
    let allow = match node.child_text("allow") {
        Some(t) => parse_bool(t)
            .ok_or_else(|| PolicyError::Structure(format!("bad <allow> value {t:?}")))?,
        None => false, // deny by default
    };
    let mut rule =
        AttributeRule { name: name.clone(), allow, conditions: Vec::new(), aggregation: None };

    for cond in node.children_named("condition") {
        // conditions may hold one or more <atomicCondition> children, or
        // bare text
        let mut texts: Vec<&str> =
            cond.children_named("atomicCondition").map(|c| c.text.as_str()).collect();
        if texts.is_empty() && !cond.text.is_empty() {
            texts.push(cond.text.as_str());
        }
        for t in texts {
            let expr = parse_expr(t).map_err(|e| PolicyError::BadExpression {
                context: format!("condition of attribute {name:?}"),
                source: t.to_string(),
                message: e.to_string(),
            })?;
            rule.conditions.push(expr);
        }
    }

    if let Some(agg) = node.child("aggregation") {
        let agg_type = agg
            .child_text("aggregationType")
            .ok_or_else(|| {
                PolicyError::Structure(format!(
                    "<aggregation> of {name:?} lacks <aggregationType>"
                ))
            })?
            .trim()
            .to_string();
        let mut spec = AggregationSpec::new(agg_type);
        if let Some(group_by) = agg.child_text("groupBy") {
            spec.group_by = group_by
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
        }
        if let Some(having) = agg.child_text("having") {
            let having = having.trim();
            if !having.is_empty() {
                let expr = parse_expr(having).map_err(|e| PolicyError::BadExpression {
                    context: format!("having of attribute {name:?}"),
                    source: having.to_string(),
                    message: e.to_string(),
                })?;
                spec.having = Some(expr);
            }
        }
        rule.aggregation = Some(spec);
    }
    Ok(rule)
}

fn parse_stream(node: &XmlNode) -> PolicyResult<StreamSettings> {
    let mut settings = StreamSettings::default();
    if let Some(t) = node.child_text("queryInterval") {
        let secs = t.trim().parse::<f64>().map_err(|_| {
            PolicyError::Structure(format!("bad <queryInterval> value {t:?}"))
        })?;
        settings.min_query_interval_secs = Some(secs);
    }
    if let Some(levels) = node.child_text("aggregationLevels") {
        settings.allowed_aggregation_levels = levels
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
    }
    Ok(settings)
}

fn parse_bool(t: &str) -> Option<bool> {
    match t.trim().to_ascii_lowercase().as_str() {
        "true" | "1" | "yes" => Some(true),
        "false" | "0" | "no" => Some(false),
        _ => None,
    }
}

/// Serialize a policy back to PP4SE XML.
pub fn policy_to_xml(policy: &Policy) -> String {
    if policy.modules.len() == 1 {
        module_to_node(&policy.modules[0]).to_xml()
    } else {
        let mut root = XmlNode::new("policy");
        for m in &policy.modules {
            root.children.push(module_to_node(m));
        }
        root.to_xml()
    }
}

fn module_to_node(module: &ModulePolicy) -> XmlNode {
    let mut node = XmlNode::new("module").with_attr("module_ID", module.module_id.clone());
    let mut list = XmlNode::new("attributeList");
    for rule in &module.attributes {
        let mut attr = XmlNode::new("attribute").with_attr("name", rule.name.clone());
        attr.children
            .push(XmlNode::new("allow").with_text(if rule.allow { "true" } else { "false" }));
        for cond in &rule.conditions {
            attr.children.push(
                XmlNode::new("condition")
                    .with_child(XmlNode::new("atomicCondition").with_text(cond.to_string())),
            );
        }
        if let Some(spec) = &rule.aggregation {
            let mut agg = XmlNode::new("aggregation").with_child(
                XmlNode::new("aggregationType").with_text(spec.aggregation_type.clone()),
            );
            if !spec.group_by.is_empty() {
                agg.children
                    .push(XmlNode::new("groupBy").with_text(spec.group_by.join(", ")));
            }
            if let Some(h) = &spec.having {
                agg.children.push(XmlNode::new("having").with_text(h.to_string()));
            }
            attr.children.push(agg);
        }
        list.children.push(attr);
    }
    node.children.push(list);
    if let Some(stream) = &module.stream {
        let mut s = XmlNode::new("stream");
        if let Some(secs) = stream.min_query_interval_secs {
            s.children.push(XmlNode::new("queryInterval").with_text(secs.to_string()));
        }
        if !stream.allowed_aggregation_levels.is_empty() {
            s.children.push(
                XmlNode::new("aggregationLevels")
                    .with_text(stream.allowed_aggregation_levels.join(", ")),
            );
        }
        node.children.push(s);
    }
    if let Some(dp) = &module.dp {
        let mut d = XmlNode::new("dp");
        d.children
            .push(XmlNode::new("epsilonPerTick").with_text(dp.epsilon_per_tick.to_string()));
        d.children.push(XmlNode::new("budget").with_text(dp.budget.to_string()));
        if dp.clamp_lo.is_finite() {
            d.children.push(XmlNode::new("clampLo").with_text(dp.clamp_lo.to_string()));
        }
        if dp.clamp_hi.is_finite() {
            d.children.push(XmlNode::new("clampHi").with_text(dp.clamp_hi.to_string()));
        }
        node.children.push(d);
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_constant_matches_parsed_xml() {
        assert_eq!(figure4_policy(), parse_policy(FIG4_POLICY_XML).unwrap());
    }

    #[test]
    fn parses_figure4_document() {
        let p = parse_policy(FIG4_POLICY_XML).unwrap();
        assert_eq!(p.modules.len(), 1);
        let m = &p.modules[0];
        assert_eq!(m.module_id, "ActionFilter");
        assert_eq!(m.attributes.len(), 4);

        let x = m.attribute("x").unwrap();
        assert!(x.allow);
        assert_eq!(x.conditions.len(), 1);
        assert_eq!(x.conditions[0].to_string(), "x > y");

        let y = m.attribute("y").unwrap();
        assert!(y.allow && y.conditions.is_empty() && y.aggregation.is_none());

        let z = m.attribute("z").unwrap();
        assert_eq!(z.conditions[0].to_string(), "z < 2");
        let agg = z.aggregation.as_ref().unwrap();
        assert_eq!(agg.aggregation_type, "AVG");
        assert_eq!(agg.group_by, vec!["x", "y"]);
        assert_eq!(agg.having.as_ref().unwrap().to_string(), "SUM(z) > 100");

        assert!(m.attribute("t").unwrap().allow);
    }

    #[test]
    fn figure4_roundtrips() {
        let p = parse_policy(FIG4_POLICY_XML).unwrap();
        let xml = policy_to_xml(&p);
        let p2 = parse_policy(&xml).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn multi_module_policy() {
        let xml = r#"<policy>
            <module module_ID="A"><attributeList>
                <attribute name="x"><allow>true</allow></attribute>
            </attributeList></module>
            <module module_ID="B"><attributeList>
                <attribute name="x"><allow>false</allow></attribute>
            </attributeList></module>
        </policy>"#;
        let p = parse_policy(xml).unwrap();
        assert_eq!(p.modules.len(), 2);
        assert!(p.module("A").unwrap().allows("x"));
        assert!(!p.module("B").unwrap().allows("x"));
        // round-trip through the <policy> wrapper
        let p2 = parse_policy(&policy_to_xml(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn stream_settings_parse() {
        let xml = r#"<module module_ID="M">
            <attributeList><attribute name="v"><allow>true</allow></attribute></attributeList>
            <stream>
                <queryInterval>60</queryInterval>
                <aggregationLevels>second, minute</aggregationLevels>
            </stream>
        </module>"#;
        let p = parse_policy(xml).unwrap();
        let s = p.modules[0].stream.as_ref().unwrap();
        assert_eq!(s.min_query_interval_secs, Some(60.0));
        assert_eq!(s.allowed_aggregation_levels, vec!["second", "minute"]);
        let p2 = parse_policy(&policy_to_xml(&p)).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn dp_config_parses_and_roundtrips() {
        let xml = r#"<module module_ID="M">
            <attributeList><attribute name="v"><allow>true</allow></attribute></attributeList>
            <dp>
                <epsilonPerTick>0.25</epsilonPerTick>
                <budget>5</budget>
                <clampLo>-10</clampLo>
                <clampHi>10</clampHi>
            </dp>
        </module>"#;
        let p = parse_policy(xml).unwrap();
        let dp = p.modules[0].dp.unwrap();
        assert_eq!(dp.epsilon_per_tick, 0.25);
        assert_eq!(dp.budget, 5.0);
        assert_eq!((dp.clamp_lo, dp.clamp_hi), (-10.0, 10.0));
        let p2 = parse_policy(&policy_to_xml(&p)).unwrap();
        assert_eq!(p, p2);

        // unclamped config (infinite bounds, infinite budget) also
        // survives the round trip — bounds are simply omitted
        let open = Policy::single(
            ModulePolicy::new("M").with_dp(DpConfig::new(f64::INFINITY, f64::INFINITY)),
        );
        let back = parse_policy(&policy_to_xml(&open)).unwrap();
        assert_eq!(open, back);
    }

    #[test]
    fn dp_with_missing_field_is_structure_error() {
        let xml = r#"<module module_ID="M">
            <attributeList/>
            <dp><budget>5</budget></dp>
        </module>"#;
        assert!(matches!(parse_policy(xml), Err(PolicyError::Structure(_))));
    }

    #[test]
    fn missing_allow_means_denied() {
        let xml = r#"<module module_ID="M"><attributeList>
            <attribute name="secret"/>
        </attributeList></module>"#;
        let p = parse_policy(xml).unwrap();
        assert!(!p.modules[0].allows("secret"));
    }

    #[test]
    fn bad_condition_reports_context() {
        let xml = r#"<module module_ID="M"><attributeList>
            <attribute name="x"><allow>true</allow>
              <condition><atomicCondition>x >>> 1</atomicCondition></condition>
            </attribute>
        </attributeList></module>"#;
        let err = parse_policy(xml).unwrap_err();
        assert!(matches!(err, PolicyError::BadExpression { .. }));
    }

    #[test]
    fn wrong_root_is_structure_error() {
        assert!(matches!(
            parse_policy("<settings/>"),
            Err(PolicyError::Structure(_))
        ));
    }

    #[test]
    fn module_without_id_is_error() {
        assert!(parse_policy("<module><attributeList/></module>").is_err());
    }

    #[test]
    fn module_without_attribute_list_is_error() {
        assert!(parse_policy(r#"<module module_ID="M"/>"#).is_err());
    }

    #[test]
    fn bare_condition_text_works() {
        let xml = r#"<module module_ID="M"><attributeList>
            <attribute name="z"><allow>true</allow>
              <condition>z &lt; 2</condition>
            </attribute>
        </attributeList></module>"#;
        let p = parse_policy(xml).unwrap();
        assert_eq!(p.modules[0].attribute("z").unwrap().conditions[0].to_string(), "z < 2");
    }
}
