//! The closure contract, checked on served `CLOSE` replies.
//!
//! Every committed move must carry a proof (`proofs == moves`). On a
//! sampled reply, also: the request's flow under full verification
//! reports its proof effort, the staged closure yields the same bytes,
//! and replaying the trace from the closure's starting netlist
//! reproduces its `netlist_hash`. A breach fails an operation.

use std::sync::Mutex;

use asicgap::autopilot::{netlist_fingerprint, replay};
use asicgap::place::annotate;
use asicgap::sta::{ClockSpec, TimingGraph};
use asicgap::synth::{select_drives_on, DriveOptions};
use asicgap::{
    close_timing_staged_cancellable, run_scenario_verified, ArtifactStore, ConvergenceTrace,
    PlaceArtifact, SizingQuality, VerifyLevel, WireModel,
};
use asicgap_serve::proto::CloseRequest;

use crate::Report;

/// The convergence trace inside a `CLOSE` outcome text.
pub fn trace(text: &str) -> Result<ConvergenceTrace, String> {
    text.find("trace/")
        .and_then(|at| ConvergenceTrace::parse_canonical(&text[at..]))
        .ok_or_else(|| "close outcome without a parseable trace".to_string())
}

/// Fails an operation unless every committed move carries a proof.
pub fn check_proofs(served: &str, report: &mut Report) {
    match trace(served) {
        Ok(t) if t.proofs() == t.moves() => {}
        Ok(t) => report.fail(format!(
            "closure committed {} moves but proved {}",
            t.moves(),
            t.proofs()
        )),
        Err(e) => report.fail(e),
    }
}

/// The whole contract on one served reply; returns the number of
/// committed moves replayed.
pub fn check_contract(c: &CloseRequest, served: &str, report: &mut Report) -> usize {
    contract(c, served, report).unwrap_or_else(|e| {
        report.fail(format!("closure contract: {e}"));
        0
    })
}

/// Collects stage artifacts so the closure's starting netlist can be
/// rebuilt for replay.
#[derive(Default)]
struct Recorder(Mutex<Vec<String>>);

impl ArtifactStore for Recorder {
    fn get(&self, _key: &str) -> Option<String> {
        None
    }

    fn put(&self, _key: &str, value: &str) {
        self.0
            .lock()
            .expect("recorder lock")
            .push(value.to_string());
    }
}

fn contract(c: &CloseRequest, served: &str, report: &mut Report) -> Result<usize, String> {
    let run = &c.run;
    if run.verify != VerifyLevel::Full || run.wire_model != WireModel::Hpwl {
        return Err("the contract is checked on Full-verified HPWL closures".to_string());
    }
    let scenario = run.scenario();
    let flow = run_scenario_verified(&scenario, |lib| run.workload.build(lib), VerifyLevel::Full)
        .map_err(|e| format!("Full flow: {e}"))?;
    if flow.verify_effort.is_none() {
        report.fail("Full flow returned no verify effort".to_string());
    }

    let store = Recorder::default();
    let (staged, _) = close_timing_staged_cancellable(
        &scenario,
        &run.workload.canonical(),
        |lib| run.workload.build(lib),
        run.verify,
        &c.target(),
        &store,
        &|| false,
    )
    .map_err(|e| format!("staged closure: {e}"))?;
    if staged.canonical_text() != served {
        report.fail("staged closure bytes differ from the served reply".to_string());
    }

    // The fix loop starts from the place checkpoint after the closure
    // prep's post-layout drive selection.
    let lib = scenario.library.build(&scenario.technology);
    let place_text = store
        .0
        .into_inner()
        .expect("recorder lock")
        .into_iter()
        .find(|t| t.starts_with("stage-place/"))
        .ok_or("staged closure stored no place checkpoint")?;
    let place = PlaceArtifact::parse(&place_text, &lib).map_err(|e| e.to_string())?;
    let mut graph = TimingGraph::new(place.netlist, &lib, ClockSpec::unconstrained(), None);
    graph.set_parasitics(annotate(graph.netlist(), &lib, &place.placement, true));
    if scenario.sizing != SizingQuality::AsMapped {
        select_drives_on(
            &mut graph,
            &DriveOptions {
                parasitics: None,
                target_gain: 4.0,
                passes: 2,
            },
        );
    }
    let par = annotate(graph.netlist(), &lib, &place.placement, true);
    let (start, _) = graph.into_parts();
    let trace = trace(served)?;
    let replayed = replay(&trace, start, &lib, ClockSpec::unconstrained(), Some(par))
        .map_err(|e| format!("replay: {e}"))?;
    if netlist_fingerprint(&replayed, &lib) != trace.netlist_hash {
        report.fail("replayed closure does not reproduce netlist_hash".to_string());
    }
    Ok(trace.moves())
}
