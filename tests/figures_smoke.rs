//! Smoke coverage for every regeneration artifact at tiny scale: each one
//! must produce well-formed, non-empty output.

use chg_bench::figures::{self, Harness, System};
use chg_bench::Scale;

fn harness() -> Harness {
    Harness::new(Scale(0.05))
}

#[test]
fn static_artifacts_render() {
    let t1 = figures::table1();
    assert!(t1.to_string().contains("L3"));
    let t2 = figures::table2(Scale(0.05));
    assert_eq!(t2.rows.len(), 5);
    let area = figures::area_table();
    assert!(area.to_string().contains("mm^2"));
}

#[test]
fn motivation_artifacts_render() {
    let h = harness();
    assert!(figures::fig2(&h).to_string().contains("reduction"));
    assert!(figures::fig3(&h).to_string().contains("ChGraph"));
    let f5 = figures::fig5(&h);
    assert_eq!(f5.cells.len(), 20);
    let f7 = figures::fig7(&h);
    assert_eq!(f7.speedups.len(), 6);
    let f8 = figures::fig8(&h);
    assert!(f8.to_string().contains("k=10"));
}

#[test]
fn sensitivity_artifacts_render() {
    let h = harness();
    let f17 = figures::fig17(&h);
    assert_eq!(f17.samples.len(), 30);
    let f18 = figures::fig18(&h);
    assert_eq!(f18.samples.len(), 25);
    let f19 = figures::fig19(&h);
    assert_eq!(f19.samples.len(), 24);
    for sys in [System::ChGraph, System::Hygra] {
        let of_sys: Vec<_> = f19.samples.iter().filter(|s| s.system == sys).collect();
        assert_eq!(of_sys.len(), 12, "Fig. 19 has 12 {sys:?} samples");
        assert!(of_sys.iter().all(|s| s.cycles > 0), "{sys:?}: every sample simulated");
    }
    let f20 = figures::fig20(&h);
    assert_eq!(f20.samples.len(), 20);
    for (artifact, text) in [
        ("fig17", f17.to_string()),
        ("fig18", f18.to_string()),
        ("fig19", f19.to_string()),
        ("fig20", f20.to_string()),
    ] {
        assert!(text.lines().count() > 4, "{artifact} output too small");
    }
}

#[test]
fn preprocessing_and_alternative_artifacts_render() {
    let h = harness();
    let f21 = figures::fig21(&h);
    assert_eq!(f21.overheads.len(), 5);
    let f23 = figures::fig23(&h);
    assert_eq!(f23.speedups.len(), 6);
    let f24 = figures::fig24(&h);
    assert_eq!(f24.cells.len(), 5);
    let f25 = figures::fig25(&h);
    assert_eq!(f25.cells.len(), 4);
}

#[test]
fn extension_artifacts_render() {
    let h = harness();
    let e = figures::energy(&h);
    assert_eq!(e.rows.len(), 5);
    assert!(e.to_string().contains("mJ"));
    let c = figures::chains(&h);
    assert_eq!(c.rows.len(), 5);
    assert!(c.to_string().contains("chained reuse"));
}
