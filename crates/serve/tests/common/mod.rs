//! Shared fixture for the framed-TCP tests: a live [`TcpServer`] over a
//! hand-written one-layer artifact, so no surrogate or training run sits in
//! front of the wire code under test.

use pnc_core::{
    ArtifactLayer, InferencePlan, PlanPrecision, PnnArtifact, PrintedDesign,
    ARTIFACT_FORMAT_VERSION,
};
use pnc_linalg::Matrix;
use pnc_serve::wire::TcpServer;
use pnc_serve::{ModelRegistry, ServeConfig, Server};
use std::sync::Arc;

/// Registry name of the served artifact.
pub const MODEL: &str = "tiny";

/// `inv(1 V)` of an inverter η quadruple, as the artifact's bias leg stores it.
fn inv_at_one(e: [f64; 4]) -> f64 {
    e[0] - ((1.0 - e[2]) * e[3]).tanh() * e[1]
}

/// A 2 → 2 crossbar with one circuit pair per neuron. Each column's
/// weights sum to 1, as in the normalized crossbars of a trained network.
fn tiny_artifact() -> PnnArtifact {
    // `(in + 2) × out` row-major; the last two rows are the bias and g_d legs.
    #[rustfmt::skip]
    let (w_pos, w_neg) = (
        vec![
            0.40, 0.00,
            0.00, 0.35,
            0.20, 0.00,
            0.00, 0.25,
        ],
        vec![
            0.00, 0.30,
            0.25, 0.00,
            0.00, 0.10,
            0.15, 0.00,
        ],
    );
    let eta_inv = vec![[0.5, 0.5, 0.5, 6.0], [0.6, 0.45, 0.4, 5.5]];
    PnnArtifact {
        format_version: ARTIFACT_FORMAT_VERSION,
        name: MODEL.to_string(),
        in_dim: 2,
        out_dim: 2,
        layers: vec![ArtifactLayer {
            in_dim: 2,
            out_dim: 2,
            w_pos,
            w_neg,
            eta_act: vec![[0.45, 0.5, 0.55, 4.0], [0.5, 0.4, 0.5, 7.0]],
            inv_ones: eta_inv.iter().copied().map(inv_at_one).collect(),
            eta_inv,
            apply_act: true,
        }],
        design: PrintedDesign {
            crossbars: Vec::new(),
            circuits: Vec::new(),
        },
    }
}

/// A running server with its TCP front, plus the plan that gives each
/// row's reference output bits.
pub struct Live {
    pub server: Arc<Server>,
    pub tcp: TcpServer,
    plan: InferencePlan,
}

impl Live {
    /// Starts the default serving policy (200 µs dwell) over [`MODEL`] on
    /// an ephemeral loopback port.
    pub fn start() -> Live {
        let artifact = tiny_artifact();
        let config = ServeConfig::default();
        let mut registry = ModelRegistry::new(PlanPrecision::F64, config.max_batch);
        registry.insert(artifact.clone()).expect("valid artifact");
        let server = Arc::new(Server::start(&registry, config));
        let tcp = TcpServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
        let plan = InferencePlan::compile_artifact(&artifact).expect("compiles");
        Live { server, tcp, plan }
    }

    /// Output bits of a direct single-sample plan call on `row`.
    pub fn reference_bits(&mut self, row: &[f64]) -> Vec<u64> {
        let x = Matrix::from_fn(1, row.len(), |_, j| row[j]);
        let out = self.plan.infer(&x).expect("infers");
        out.row(0).iter().map(|v| v.to_bits()).collect()
    }

    /// Stops the TCP front, then the server.
    pub fn stop(self) {
        self.tcp.shutdown();
        self.server.shutdown();
    }
}
