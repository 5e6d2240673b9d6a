//! The input to a formation run: GSPs, trust, and the grand-coalition
//! assignment instance.

use std::sync::Arc;

use crate::gsp::Gsp;
use crate::{CoreError, Result};
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;
use serde::{Deserialize, Serialize};

/// Everything the mechanism needs for one program:
///
/// * the set of GSPs (speeds),
/// * the trust graph over them,
/// * the full `tasks × m` assignment instance for the grand coalition
///   (cost matrix, time matrix, deadline `d`, payment `P`).
///
/// Instances for smaller VOs are derived by column restriction.
///
/// The instance sits behind an `Arc`: a daemon publishes a fresh
/// scenario on every trust report, but the matrices change only when
/// the pool's membership does, so successive scenarios share them.
/// It serializes as the bare instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "RawScenario")]
pub struct FormationScenario {
    gsps: Vec<Gsp>,
    trust: TrustGraph,
    instance: Arc<AssignmentInstance>,
}

/// Serde shadow: deserialization re-runs the cross-shape validation,
/// so a hand-edited scenario file cannot desynchronize the trust
/// graph, GSP list and instance.
#[derive(serde::Deserialize)]
struct RawScenario {
    gsps: Vec<Gsp>,
    trust: TrustGraph,
    instance: AssignmentInstance,
}

impl TryFrom<RawScenario> for FormationScenario {
    type Error = String;
    fn try_from(raw: RawScenario) -> std::result::Result<Self, String> {
        FormationScenario::new(raw.gsps, raw.trust, raw.instance).map_err(|e| e.to_string())
    }
}

impl FormationScenario {
    /// Build and cross-validate a scenario. The trust graph and the
    /// instance's GSP dimension must both match `gsps.len()`.
    pub fn new(gsps: Vec<Gsp>, trust: TrustGraph, instance: AssignmentInstance) -> Result<Self> {
        Self::from_shared(gsps, trust, Arc::new(instance))
    }

    /// [`FormationScenario::new`] over an instance that is already
    /// shared: the same shape checks, no matrix copy.
    pub fn from_shared(
        gsps: Vec<Gsp>,
        trust: TrustGraph,
        instance: Arc<AssignmentInstance>,
    ) -> Result<Self> {
        let m = gsps.len();
        if trust.node_count() != m {
            return Err(CoreError::ShapeMismatch { context: "trust graph vs GSP count" });
        }
        if instance.gsps() != m {
            return Err(CoreError::ShapeMismatch { context: "instance columns vs GSP count" });
        }
        Ok(FormationScenario { gsps, trust, instance })
    }

    /// Number of GSPs `m`.
    pub fn gsp_count(&self) -> usize {
        self.gsps.len()
    }

    /// Number of tasks `n`.
    pub fn task_count(&self) -> usize {
        self.instance.tasks()
    }

    /// The GSPs.
    pub fn gsps(&self) -> &[Gsp] {
        &self.gsps
    }

    /// The trust graph over all GSPs.
    pub fn trust(&self) -> &TrustGraph {
        &self.trust
    }

    /// The grand-coalition assignment instance.
    pub fn instance(&self) -> &AssignmentInstance {
        &self.instance
    }

    /// The payment `P`.
    pub fn payment(&self) -> f64 {
        self.instance.payment()
    }

    /// The deadline `d`.
    pub fn deadline(&self) -> f64 {
        self.instance.deadline()
    }

    /// The IP a candidate VO (given by global GSP indices) faces.
    /// Returns `None` when the VO cannot possibly host the program
    /// (fewer tasks than members — constraint (13) infeasible — or an
    /// empty member list).
    pub fn instance_for(&self, members: &[usize]) -> Option<AssignmentInstance> {
        if members.is_empty() || self.instance.tasks() < members.len() {
            return None;
        }
        self.instance.restrict_gsps(members).ok()
    }

    /// The trust subgraph of a candidate VO.
    pub fn trust_for(&self, members: &[usize]) -> Result<TrustGraph> {
        Ok(self.trust.restrict(members)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(tasks: usize, gsps: usize) -> AssignmentInstance {
        AssignmentInstance::new(
            tasks,
            gsps,
            vec![1.0; tasks * gsps],
            vec![1.0; tasks * gsps],
            100.0,
            100.0,
        )
        .unwrap()
    }

    #[test]
    fn validates_shapes() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0)];
        let ok = FormationScenario::new(gsps.clone(), TrustGraph::new(2), instance(4, 2));
        assert!(ok.is_ok());
        let bad_trust = FormationScenario::new(gsps.clone(), TrustGraph::new(3), instance(4, 2));
        assert!(matches!(bad_trust, Err(CoreError::ShapeMismatch { .. })));
        let bad_inst = FormationScenario::new(gsps, TrustGraph::new(2), instance(4, 3));
        assert!(matches!(bad_inst, Err(CoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn from_shared_checks_shapes_and_shares_the_instance() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0)];
        let shared = Arc::new(instance(4, 2));
        let a = FormationScenario::from_shared(gsps.clone(), TrustGraph::new(2), shared.clone())
            .unwrap();
        let b = FormationScenario::from_shared(gsps.clone(), TrustGraph::new(2), shared.clone())
            .unwrap();
        assert!(std::ptr::eq(a.instance(), b.instance()), "no matrix copy");
        let bad = FormationScenario::from_shared(gsps, TrustGraph::new(3), shared);
        assert!(matches!(bad, Err(CoreError::ShapeMismatch { .. })));
        // The shared instance serializes as the bare one.
        let direct = FormationScenario::new(a.gsps().to_vec(), TrustGraph::new(2), instance(4, 2));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&direct.unwrap()).unwrap()
        );
    }

    #[test]
    fn instance_for_restricts_columns() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0), Gsp::new(2, 30.0)];
        let mut cost = Vec::new();
        for t in 0..4 {
            for g in 0..3 {
                cost.push((t * 3 + g) as f64 + 1.0);
            }
        }
        let inst = AssignmentInstance::new(4, 3, cost, vec![1.0; 12], 100.0, 100.0).unwrap();
        let s = FormationScenario::new(gsps, TrustGraph::new(3), inst).unwrap();
        let sub = s.instance_for(&[0, 2]).unwrap();
        assert_eq!(sub.gsps(), 2);
        assert_eq!(sub.cost(0, 1), 3.0); // task 0, old GSP 2
    }

    #[test]
    fn instance_for_rejects_undersized() {
        // A valid scenario always has tasks ≥ m ≥ |members|, so the
        // reachable degenerate input is the empty member list.
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0)];
        let s = FormationScenario::new(gsps, TrustGraph::new(2), instance(2, 2)).unwrap();
        assert!(s.instance_for(&[]).is_none());
        assert!(s.instance_for(&[0]).is_some());
        assert!(s.instance_for(&[0, 1]).is_some());
    }

    #[test]
    fn trust_for_restricts() {
        let gsps = vec![Gsp::new(0, 10.0), Gsp::new(1, 20.0), Gsp::new(2, 30.0)];
        let mut t = TrustGraph::new(3);
        t.set_trust(0, 2, 0.7);
        let s = FormationScenario::new(gsps, t, instance(4, 3)).unwrap();
        let sub = s.trust_for(&[0, 2]).unwrap();
        assert_eq!(sub.trust(0, 1), 0.7);
    }
}
