//! Exact access-path counts: index probes and scans for instantiation,
//! point gets and counted scans for VOQL GETs served over vo-net. The
//! relational counters are process-wide, and unit tests running beside
//! a count would add to it, so this binary holds a single test.

use penguin_vo::prelude::*;
use penguin_vo::relational::stats;

#[test]
fn instantiation_probes_indexes_without_scans() {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let before = stats::snapshot();
    let all = p.instantiate_all("omega").unwrap();
    let d = before.delta(&stats::snapshot());
    assert_eq!(all.len(), 3);
    assert_eq!(d.fallback_scans, 0, "indexed edges must not scan: {d}");
    assert_eq!(d.hash_builds, 0);
    assert!(d.index_probes > 0);
    assert_eq!(d.instances_built, 3);

    // VOQL GETs over the wire: a pinned key is a point get, anything
    // else one counted scan of the pivot relation
    let mut server = VoServer::start(p, ServerOptions::default()).unwrap();
    let mut client =
        VoClient::connect(server.addr().to_string(), ClientOptions::default()).unwrap();
    let mut get = |src: &str| {
        let before = stats::snapshot();
        let n = match client.voql(src).unwrap() {
            VoqlResult::Instances(instances) => instances.len(),
            other => panic!("`{src}` answered {other:?}"),
        };
        (n, before.delta(&stats::snapshot()))
    };
    let (n, d) = get("GET omega WHERE course_id = 'CS345'");
    assert_eq!((n, d.full_scans, d.fallback_scans), (1, 0, 0), "{d}");
    let (n, d) = get("GET omega WHERE course_id = 'CS345' AND level = 'graduate'");
    assert_eq!((n, d.full_scans, d.fallback_scans), (1, 0, 0), "{d}");
    // a literal of the wrong type for the key column takes the scan
    let (n, d) = get("GET omega WHERE course_id = 345");
    assert_eq!((n, d.full_scans, d.fallback_scans), (0, 1, 0), "{d}");
    let (n, d) = get("GET omega WHERE dept_name = 'Computer Science'");
    assert_eq!((n, d.full_scans, d.fallback_scans), (2, 1, 0), "{d}");
    server.shutdown();
}
