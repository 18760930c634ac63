//! The client/server message protocol and its wire encodings.

use crate::codec::EncodedWeights;
use crate::dxo::{Dxo, DxoKind, WeightTensor, Weights};
use crate::wire::{WireDecode, WireEncode, WireReader};
use crate::FlareError;
use std::collections::BTreeMap;

/// Messages sent from a client to the server.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMessage {
    /// Registration with the provisioned token (sent in the clear, before
    /// the encrypted session exists — mirrors NVFlare's join flow in
    /// Fig. 3: "New client site-1@… joined. Sent token: …").
    Register {
        /// Site name from the provision package.
        site: String,
        /// Registration token from the provision package.
        token: String,
        /// Client's ephemeral Diffie–Hellman public value.
        dh_public: u64,
    },
    /// A local training result for a round.
    Submit {
        /// Round the update belongs to.
        round: u32,
        /// The update payload.
        dxo: Dxo,
    },
    /// Result of validating the broadcast global model locally.
    ValidateReport {
        /// Round validated.
        round: u32,
        /// Metric value (top-1 accuracy).
        metric: f64,
    },
    /// Graceful disconnect.
    Bye {
        /// Site name.
        site: String,
    },
    /// Keepalive sent while a client is idle (e.g. waiting out a recv
    /// retry); the server logs it and keeps it out of the workflow.
    Heartbeat {
        /// Site name.
        site: String,
    },
    /// Wire-codec negotiation: the client proposes codec specs in
    /// preference order (see [`crate::codec::CodecSpec::parse`] for the
    /// string grammar). Servers predating the codec layer ignore this
    /// message, which the client treats as "negotiate raw".
    CodecPropose {
        /// Site name.
        site: String,
        /// Proposed codec spec strings, most preferred first.
        specs: Vec<String>,
    },
    /// A local training result encoded with the negotiated wire codec
    /// (the compressed counterpart of [`ClientMessage::Submit`]).
    SubmitEnc {
        /// Round the update belongs to.
        round: u32,
        /// Most recent downlink payload id this client reconstructed
        /// (the server's delta base for future downlinks), or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// Training-set size for weighted FedAvg.
        n_examples: u64,
        /// Scalar metrics (train loss etc.).
        metrics: BTreeMap<String, f64>,
        /// The encoded weight payload.
        enc: EncodedWeights,
    },
    /// Validation report that also carries the client's downlink ack
    /// (the compressed counterpart of [`ClientMessage::ValidateReport`]).
    ValidateReportEnc {
        /// Round validated.
        round: u32,
        /// Metric value (top-1 accuracy).
        metric: f64,
        /// Most recent downlink payload id this client reconstructed,
        /// or [`crate::codec::NO_BASE`].
        ack: u32,
    },
    /// A pre-aggregated update from an interior tree-aggregator node: one
    /// weighted partial FedAvg over the node's shard of sites, plus the
    /// per-leaf bookkeeping the root needs for quorum and round summaries
    /// (see [`crate::relay::AggregatorNode`]).
    SubmitShard {
        /// Round the shard belongs to.
        round: u32,
        /// Most recent downlink payload id this node reconstructed, or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// Combined effective example count of the shard (the upstream
        /// FedAvg weight).
        n_examples: u64,
        /// Leaf sites whose updates are folded into this shard, with
        /// their training metrics.
        sites: Vec<(String, std::collections::BTreeMap<String, f64>)>,
        /// Leaf sites this node expected but did not hear from.
        dropped: Vec<String>,
        /// The partial-aggregate weights, raw or codec-encoded.
        payload: ShardPayload,
    },
    /// Per-leaf validation metrics relayed by an interior tree node
    /// (counterpart of [`ClientMessage::ValidateReport`] for a shard).
    ValidateShard {
        /// Round validated.
        round: u32,
        /// Most recent downlink payload id this node reconstructed, or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// `(leaf site, metric)` reports gathered below this node.
        reports: Vec<(String, f64)>,
    },
    /// Announces which leaf sites live below this client (sent by
    /// interior tree nodes right after registration, before any codec
    /// negotiation). A server that never receives one treats the client
    /// as a single leaf.
    AnnounceLeaves {
        /// Leaf site names below this client, sorted.
        sites: Vec<String>,
    },
}

/// The weight payload of a [`ClientMessage::SubmitShard`].
#[derive(Clone, Debug, PartialEq)]
pub enum ShardPayload {
    /// Plain full-precision weights.
    Raw(Weights),
    /// Weights encoded with the codec this node negotiated upstream.
    Encoded(EncodedWeights),
}

impl WireEncode for ShardPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardPayload::Raw(w) => {
                0u8.encode(out);
                w.encode(out);
            }
            ShardPayload::Encoded(enc) => {
                1u8.encode(out);
                enc.encode(out);
            }
        }
    }
}

impl WireDecode for ShardPayload {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(ShardPayload::Raw(BTreeMap::decode(r)?)),
            1 => Ok(ShardPayload::Encoded(EncodedWeights::decode(r)?)),
            b => Err(FlareError::Codec(format!("invalid ShardPayload tag {b}"))),
        }
    }
}

// The wire layer has no generic tuple impls; shard site lists are encoded
// element-wise.
fn encode_pairs<A: WireEncode, B: WireEncode>(pairs: &[(A, B)], out: &mut Vec<u8>) {
    pairs.len().encode(out);
    for (a, b) in pairs {
        a.encode(out);
        b.encode(out);
    }
}

fn decode_pairs<A: WireDecode, B: WireDecode>(
    r: &mut WireReader<'_>,
) -> Result<Vec<(A, B)>, FlareError> {
    let n = usize::decode(r)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push((A::decode(r)?, B::decode(r)?));
    }
    Ok(out)
}

/// Messages sent from the server to a client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMessage {
    /// Reply to [`ClientMessage::Register`].
    RegisterAck {
        /// Whether the token was accepted.
        accepted: bool,
        /// Session identifier (the "Token: …" line of Fig. 3).
        session: String,
        /// Server's ephemeral Diffie–Hellman public value.
        dh_public: u64,
    },
    /// A task assignment.
    Task(TaskAssignment),
    /// Reply to [`ClientMessage::CodecPropose`]: the chosen spec (or
    /// `None` when no proposal parsed) plus the codec families this
    /// server supports, for client-side diagnostics.
    CodecAck {
        /// Accepted codec spec string, canonical form; `None` = raw.
        chosen: Option<String>,
        /// Codec families the server understands (see
        /// [`crate::codec::SUPPORTED_CODECS`]).
        supported: Vec<String>,
    },
}

/// The unit of work the ScatterAndGather controller assigns.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskAssignment {
    /// Train locally starting from `weights`.
    Train {
        /// Current round (0-based).
        round: u32,
        /// Total rounds `E`.
        total_rounds: u32,
        /// Global model weights.
        weights: Weights,
    },
    /// Validate `weights` locally and report the metric.
    Validate {
        /// Round being validated.
        round: u32,
        /// Global model weights.
        weights: Weights,
    },
    /// Workflow finished; disconnect.
    Finish,
    /// Train task whose weights arrive via the negotiated wire codec
    /// (the compressed counterpart of [`TaskAssignment::Train`]).
    TrainEnc {
        /// Current round (0-based).
        round: u32,
        /// Total rounds `E`.
        total_rounds: u32,
        /// Encoded global model payload.
        enc: EncodedWeights,
    },
    /// Validate task with codec-encoded weights (the compressed
    /// counterpart of [`TaskAssignment::Validate`]).
    ValidateEnc {
        /// Round being validated.
        round: u32,
        /// Encoded global model payload.
        enc: EncodedWeights,
    },
}

// ---------------------------------------------------------------------
// Wire encodings
// ---------------------------------------------------------------------

impl WireEncode for WeightTensor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.data.encode(out);
    }
}

impl WireDecode for WeightTensor {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let dims: Vec<usize> = Vec::decode(r)?;
        let data: Vec<f32> = Vec::decode(r)?;
        let expect: usize = dims.iter().product();
        if expect != data.len() {
            return Err(FlareError::Codec(format!(
                "weight tensor dims {dims:?} disagree with {} data values",
                data.len()
            )));
        }
        Ok(WeightTensor { dims, data })
    }
}

impl WireEncode for DxoKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let b: u8 = match self {
            DxoKind::Weights => 0,
            DxoKind::WeightDiff => 1,
            DxoKind::Metrics => 2,
        };
        b.encode(out);
    }
}

impl WireDecode for DxoKind {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(DxoKind::Weights),
            1 => Ok(DxoKind::WeightDiff),
            2 => Ok(DxoKind::Metrics),
            b => Err(FlareError::Codec(format!("invalid DxoKind byte {b}"))),
        }
    }
}

impl WireEncode for Dxo {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.weights.encode(out);
        self.metrics.encode(out);
        self.n_examples.encode(out);
    }
}

impl WireDecode for Dxo {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        Ok(Dxo {
            kind: DxoKind::decode(r)?,
            weights: BTreeMap::decode(r)?,
            metrics: BTreeMap::decode(r)?,
            n_examples: u64::decode(r)?,
        })
    }
}

impl WireEncode for ClientMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientMessage::Register {
                site,
                token,
                dh_public,
            } => {
                0u8.encode(out);
                site.encode(out);
                token.encode(out);
                dh_public.encode(out);
            }
            ClientMessage::Submit { round, dxo } => {
                1u8.encode(out);
                round.encode(out);
                dxo.encode(out);
            }
            ClientMessage::ValidateReport { round, metric } => {
                2u8.encode(out);
                round.encode(out);
                metric.encode(out);
            }
            ClientMessage::Bye { site } => {
                3u8.encode(out);
                site.encode(out);
            }
            ClientMessage::Heartbeat { site } => {
                4u8.encode(out);
                site.encode(out);
            }
            ClientMessage::CodecPropose { site, specs } => {
                5u8.encode(out);
                site.encode(out);
                specs.encode(out);
            }
            ClientMessage::SubmitEnc {
                round,
                ack,
                n_examples,
                metrics,
                enc,
            } => {
                6u8.encode(out);
                round.encode(out);
                ack.encode(out);
                n_examples.encode(out);
                metrics.encode(out);
                enc.encode(out);
            }
            ClientMessage::ValidateReportEnc { round, metric, ack } => {
                7u8.encode(out);
                round.encode(out);
                metric.encode(out);
                ack.encode(out);
            }
            ClientMessage::SubmitShard {
                round,
                ack,
                n_examples,
                sites,
                dropped,
                payload,
            } => {
                8u8.encode(out);
                round.encode(out);
                ack.encode(out);
                n_examples.encode(out);
                encode_pairs(sites, out);
                dropped.encode(out);
                payload.encode(out);
            }
            ClientMessage::ValidateShard {
                round,
                ack,
                reports,
            } => {
                9u8.encode(out);
                round.encode(out);
                ack.encode(out);
                encode_pairs(reports, out);
            }
            ClientMessage::AnnounceLeaves { sites } => {
                10u8.encode(out);
                sites.encode(out);
            }
        }
    }
}

impl WireDecode for ClientMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(ClientMessage::Register {
                site: String::decode(r)?,
                token: String::decode(r)?,
                dh_public: u64::decode(r)?,
            }),
            1 => Ok(ClientMessage::Submit {
                round: u32::decode(r)?,
                dxo: Dxo::decode(r)?,
            }),
            2 => Ok(ClientMessage::ValidateReport {
                round: u32::decode(r)?,
                metric: f64::decode(r)?,
            }),
            3 => Ok(ClientMessage::Bye {
                site: String::decode(r)?,
            }),
            4 => Ok(ClientMessage::Heartbeat {
                site: String::decode(r)?,
            }),
            5 => Ok(ClientMessage::CodecPropose {
                site: String::decode(r)?,
                specs: Vec::decode(r)?,
            }),
            6 => Ok(ClientMessage::SubmitEnc {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                n_examples: u64::decode(r)?,
                metrics: BTreeMap::decode(r)?,
                enc: EncodedWeights::decode(r)?,
            }),
            7 => Ok(ClientMessage::ValidateReportEnc {
                round: u32::decode(r)?,
                metric: f64::decode(r)?,
                ack: u32::decode(r)?,
            }),
            8 => Ok(ClientMessage::SubmitShard {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                n_examples: u64::decode(r)?,
                sites: decode_pairs(r)?,
                dropped: Vec::decode(r)?,
                payload: ShardPayload::decode(r)?,
            }),
            9 => Ok(ClientMessage::ValidateShard {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                reports: decode_pairs(r)?,
            }),
            10 => Ok(ClientMessage::AnnounceLeaves {
                sites: Vec::decode(r)?,
            }),
            b => Err(FlareError::Codec(format!("invalid ClientMessage tag {b}"))),
        }
    }
}

impl WireEncode for TaskAssignment {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TaskAssignment::Train {
                round,
                total_rounds,
                weights,
            } => {
                0u8.encode(out);
                round.encode(out);
                total_rounds.encode(out);
                weights.encode(out);
            }
            TaskAssignment::Validate { round, weights } => {
                1u8.encode(out);
                round.encode(out);
                weights.encode(out);
            }
            TaskAssignment::Finish => 2u8.encode(out),
            TaskAssignment::TrainEnc {
                round,
                total_rounds,
                enc,
            } => {
                3u8.encode(out);
                round.encode(out);
                total_rounds.encode(out);
                enc.encode(out);
            }
            TaskAssignment::ValidateEnc { round, enc } => {
                4u8.encode(out);
                round.encode(out);
                enc.encode(out);
            }
        }
    }
}

impl WireDecode for TaskAssignment {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(TaskAssignment::Train {
                round: u32::decode(r)?,
                total_rounds: u32::decode(r)?,
                weights: BTreeMap::decode(r)?,
            }),
            1 => Ok(TaskAssignment::Validate {
                round: u32::decode(r)?,
                weights: BTreeMap::decode(r)?,
            }),
            2 => Ok(TaskAssignment::Finish),
            3 => Ok(TaskAssignment::TrainEnc {
                round: u32::decode(r)?,
                total_rounds: u32::decode(r)?,
                enc: EncodedWeights::decode(r)?,
            }),
            4 => Ok(TaskAssignment::ValidateEnc {
                round: u32::decode(r)?,
                enc: EncodedWeights::decode(r)?,
            }),
            b => Err(FlareError::Codec(format!("invalid TaskAssignment tag {b}"))),
        }
    }
}

/// A borrowed task encoded as [`ServerMessage::Task`]: its `to_frame` is
/// the same bytes as `ServerMessage::Task(task.clone()).to_frame()`,
/// without copying the task's weights.
pub(crate) struct TaskMessage<'a>(pub(crate) &'a TaskAssignment);

impl WireEncode for TaskMessage<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        1u8.encode(out);
        self.0.encode(out);
    }
}

impl WireEncode for ServerMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerMessage::RegisterAck {
                accepted,
                session,
                dh_public,
            } => {
                0u8.encode(out);
                accepted.encode(out);
                session.encode(out);
                dh_public.encode(out);
            }
            ServerMessage::Task(t) => TaskMessage(t).encode(out),
            ServerMessage::CodecAck { chosen, supported } => {
                2u8.encode(out);
                chosen.encode(out);
                supported.encode(out);
            }
        }
    }
}

impl WireDecode for ServerMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(ServerMessage::RegisterAck {
                accepted: bool::decode(r)?,
                session: String::decode(r)?,
                dh_public: u64::decode(r)?,
            }),
            1 => Ok(ServerMessage::Task(TaskAssignment::decode(r)?)),
            2 => Ok(ServerMessage::CodecAck {
                chosen: Option::decode(r)?,
                supported: Vec::decode(r)?,
            }),
            b => Err(FlareError::Codec(format!("invalid ServerMessage tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> Weights {
        let mut w = Weights::new();
        w.insert(
            "layer.w".into(),
            WeightTensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]),
        );
        w.insert("layer.b".into(), WeightTensor::new(vec![3], vec![0.; 3]));
        w
    }

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(v, T::from_frame(&v.to_frame()).expect("decode"));
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip(ClientMessage::Register {
            site: "site-1".into(),
            token: "2c15ddc6".into(),
            dh_public: 123456789,
        });
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), 0.919);
        metrics.insert("valid_acc".to_string(), 0.496);
        roundtrip(ClientMessage::Submit {
            round: 3,
            dxo: Dxo {
                kind: DxoKind::Weights,
                weights: weights(),
                metrics,
                n_examples: 866,
            },
        });
        roundtrip(ClientMessage::ValidateReport {
            round: 9,
            metric: 0.875,
        });
        roundtrip(ClientMessage::Bye {
            site: "site-8".into(),
        });
        roundtrip(ClientMessage::Heartbeat {
            site: "site-4".into(),
        });
    }

    #[test]
    fn codec_messages_roundtrip() {
        use crate::codec::{encode_weights, CodecSpec, NO_BASE};
        roundtrip(ClientMessage::CodecPropose {
            site: "site-1".into(),
            specs: vec!["delta+int8".into(), "delta".into()],
        });
        let spec = CodecSpec::parse("delta+int8").unwrap();
        let enc = encode_weights(&weights(), 1, None, &spec, None).unwrap();
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), 0.42);
        roundtrip(ClientMessage::SubmitEnc {
            round: 2,
            ack: 3,
            n_examples: 866,
            metrics,
            enc: enc.clone(),
        });
        roundtrip(ClientMessage::ValidateReportEnc {
            round: 2,
            metric: 0.5,
            ack: NO_BASE,
        });
        roundtrip(ServerMessage::CodecAck {
            chosen: Some("delta+int8".into()),
            supported: vec!["raw".into(), "delta".into()],
        });
        roundtrip(ServerMessage::Task(TaskAssignment::TrainEnc {
            round: 0,
            total_rounds: 2,
            enc: enc.clone(),
        }));
        roundtrip(ServerMessage::Task(TaskAssignment::ValidateEnc {
            round: 0,
            enc,
        }));
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip(ServerMessage::RegisterAck {
            accepted: true,
            session: "64245db0".into(),
            dh_public: 42,
        });
        roundtrip(ServerMessage::Task(TaskAssignment::Train {
            round: 0,
            total_rounds: 10,
            weights: weights(),
        }));
        roundtrip(ServerMessage::Task(TaskAssignment::Validate {
            round: 1,
            weights: weights(),
        }));
        roundtrip(ServerMessage::Task(TaskAssignment::Finish));
    }

    #[test]
    fn borrowed_task_frame_is_the_owned_message_frame() {
        for task in [
            TaskAssignment::Train {
                round: 3,
                total_rounds: 10,
                weights: weights(),
            },
            TaskAssignment::Validate {
                round: 3,
                weights: weights(),
            },
            TaskAssignment::Finish,
        ] {
            let frame = TaskMessage(&task).to_frame();
            assert_eq!(frame, ServerMessage::Task(task.clone()).to_frame());
            let decoded = ServerMessage::from_frame(&frame).expect("decode");
            assert_eq!(decoded, ServerMessage::Task(task));
        }
    }

    #[test]
    fn tensor_dims_mismatch_rejected() {
        let mut out = crate::wire::FRAME_MAGIC.to_vec();
        vec![2usize, 3].encode(&mut out);
        vec![1.0f32; 5].encode(&mut out); // should be 6
        assert!(WeightTensor::from_frame(&out).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut out = crate::wire::FRAME_MAGIC.to_vec();
        99u8.encode(&mut out);
        assert!(ClientMessage::from_frame(&out).is_err());
        assert!(ServerMessage::from_frame(&out).is_err());
        assert!(TaskAssignment::from_frame(&out).is_err());
        assert!(DxoKind::from_frame(&out).is_err());
        assert!(ShardPayload::from_frame(&out).is_err());
    }

    #[test]
    fn shard_messages_roundtrip() {
        use crate::codec::{encode_weights, CodecSpec, NO_BASE};
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), 0.25);
        roundtrip(ClientMessage::SubmitShard {
            round: 4,
            ack: NO_BASE,
            n_examples: 64,
            sites: vec![
                ("site-1".to_string(), metrics.clone()),
                ("site-2".to_string(), BTreeMap::new()),
            ],
            dropped: vec!["site-3".to_string()],
            payload: ShardPayload::Raw(weights()),
        });
        let spec = CodecSpec::parse("delta+int8").unwrap();
        let enc = encode_weights(&weights(), 1, None, &spec, None).unwrap();
        roundtrip(ClientMessage::SubmitShard {
            round: 5,
            ack: 7,
            n_examples: 128,
            sites: vec![("site-4".to_string(), metrics)],
            dropped: vec![],
            payload: ShardPayload::Encoded(enc),
        });
        roundtrip(ClientMessage::ValidateShard {
            round: 4,
            ack: NO_BASE,
            reports: vec![("site-1".to_string(), 0.5), ("site-2".to_string(), 0.75)],
        });
        roundtrip(ClientMessage::AnnounceLeaves {
            sites: vec!["site-1".to_string(), "site-2".to_string()],
        });
    }
}
