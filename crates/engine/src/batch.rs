//! The request a [`crate::Service`] queues, and what it multiplies.
//!
//! A request waits in its tenant's injector queue until a drain hands it,
//! in drain order, to the shard engine. The engine queues it behind the
//! first request on the same operands, so a flush can interleave the
//! pending operands of one matrix — single vectors and dense blocks alike
//! — into one [`mps_sparse::DenseBlock`] and run them through a single
//! column-tiled SpMM traversal.

use std::sync::Arc;
use std::time::Instant;

use mps_sparse::{CsrMatrix, DenseBlock};

use crate::error::TenantId;
use crate::service::ServiceTicket;

/// What a request multiplies its matrix by: one vector (SpMV), a dense
/// block (SpMM) or a sparse matrix (SpGEMM). Vectors and blocks coalesce
/// into the same column-tiled traversal; the payload kind decides the
/// [`crate::EngineOutput`] variant handed back at redemption.
pub(crate) enum RequestPayload {
    Vector(Vec<f64>),
    Block(DenseBlock),
    Matrix(Arc<CsrMatrix>),
}

impl RequestPayload {
    /// Output columns this payload contributes to a coalesced traversal.
    pub fn cols(&self) -> usize {
        match self {
            RequestPayload::Vector(_) => 1,
            RequestPayload::Block(b) => b.cols,
            RequestPayload::Matrix(b) => b.num_cols,
        }
    }
}

pub(crate) struct Request {
    pub ticket: ServiceTicket,
    pub tenant: TenantId,
    /// Pattern fingerprint of `matrix`, computed once to route the request.
    pub fingerprint: u64,
    /// The left operand. Kept as an `Arc` so the request works even if the
    /// submitter drops its handle before the flush, and so requests on one
    /// allocation can be told apart from same-pattern matrices holding
    /// other values.
    pub matrix: Arc<CsrMatrix>,
    pub payload: RequestPayload,
    /// Absolute expiry; `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl Request {
    /// Whether `other` multiplies the same operand allocations, and so may
    /// share this request's queue (and, for SpMV/SpMM, its traversal).
    pub fn same_operands(&self, other: &Request) -> bool {
        Arc::ptr_eq(&self.matrix, &other.matrix)
            && match (&self.payload, &other.payload) {
                (RequestPayload::Matrix(b), RequestPayload::Matrix(b2)) => Arc::ptr_eq(b, b2),
                (RequestPayload::Matrix(_), _) | (_, RequestPayload::Matrix(_)) => false,
                _ => true,
            }
    }
}
