//! Cross-crate policy tests: Figure 4 round-trips and stream settings
//! gate query intervals.

use paradise::prelude::*;

#[test]
fn figure4_xml_parses_validates_and_roundtrips() {
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    assert!(validate_policy(&policy).is_empty());
    let xml = policy_to_xml(&policy);
    let again = parse_policy(&xml).unwrap();
    assert_eq!(policy, again);
    // and equals the programmatic constant
    assert_eq!(policy, figure4_policy());
}

#[test]
fn stream_settings_gate_query_intervals() {
    let xml = r#"<module module_ID="M">
        <attributeList><attribute name="v"><allow>true</allow></attribute></attributeList>
        <stream><queryInterval>60</queryInterval>
                <aggregationLevels>minute, hour</aggregationLevels></stream>
    </module>"#;
    let policy = parse_policy(xml).unwrap();
    let stream = policy.modules[0].stream.as_ref().unwrap();
    assert!(stream.permits_interval(61.0));
    assert!(!stream.permits_interval(59.0));
    assert!(stream.permits_level("hour"));
    assert!(!stream.permits_level("raw"));
}
