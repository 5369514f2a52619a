//! The system under test, built the way each workload deploys it, behind
//! the few calls the load generator makes.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cb_core::engine::{Engine, EngineBuilder, EngineError, Request, StorageConfig};
use cb_core::scheduler::{EngineService, ServiceConfig};
use cb_core::stream::ResponseStream;
use cb_kv::store::StoreStats;
use cb_kv::ChunkId;
use cb_model::ModelProfile;
use cb_net::gateway::{Accepted, ClusterStats};
use cb_net::{Gateway, GatewayConfig, NetClient, TcpTransport, Worker, WorkerConfig};
use cb_storage::device::DeviceKind;
use cb_tokenizer::TokenId;

/// Model compilation seed shared by every engine, the oracle included.
pub const MODEL_SEED: u64 = 11;

/// Fixed recompute ratio: every engine blends the same rows, so a lone
/// engine's answer is an exact oracle for a served one.
pub const RATIO: f32 = 0.15;

/// An engine over the Mistral-7B stand-in with the given storage.
pub fn engine(storage: StorageConfig) -> Engine {
    EngineBuilder::new(ModelProfile::Mistral7B)
        .seed(MODEL_SEED)
        .storage(storage)
        .build()
        .expect("engine configuration is valid")
}

/// How a workload deploys the serving stack.
pub enum Deploy {
    /// `NetClient` → TCP → `Gateway` → two TCP `Worker`s, each wrapping an
    /// `EngineService` with `ServiceConfig::default()` over a RAM store.
    Cluster,
    /// One in-process `EngineService` with a continuous decode batch of
    /// `decode_batch` over `storage`; `dir` is the disk tier's directory.
    Local {
        storage: StorageConfig,
        decode_batch: usize,
        dir: PathBuf,
    },
}

enum Front {
    // Field order is drop order: the client session closes before the
    // gateway, the gateway before its workers, the workers before the
    // services they wrap.
    Cluster {
        client: NetClient,
        gateway: Gateway,
        _workers: Vec<Worker>,
        services: Vec<Arc<EngineService>>,
    },
    Local {
        service: EngineService,
    },
}

/// A running deployment.
pub struct System {
    // Dropped first: the stack (and every program thread) is gone before
    // the disk tier's directory is removed.
    front: Front,
    _dir: Option<TempDir>,
}

/// Errors building a deployment (socket or handshake failures).
pub type SetupError = String;

fn err(e: impl std::fmt::Display) -> SetupError {
    e.to_string()
}

impl System {
    /// Builds the deployment (with a fresh, empty disk directory when it
    /// has a disk tier).
    pub fn start(deploy: &Deploy) -> Result<System, SetupError> {
        match deploy {
            Deploy::Cluster => {
                let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
                let addr = listener.local_addr().map_err(err)?;
                let gateway = Gateway::new(GatewayConfig::default());
                let mut services = Vec::new();
                let mut workers = Vec::new();
                for _ in 0..2 {
                    let service = Arc::new(EngineService::new(
                        engine(StorageConfig::default()),
                        ServiceConfig::default(),
                    ));
                    let conn = TcpTransport::connect(addr).map_err(err)?;
                    workers.push(
                        Worker::start(service.clone(), Arc::new(conn), WorkerConfig::default())
                            .map_err(err)?,
                    );
                    services.push(service);
                    accept(&listener, &gateway)?;
                }
                let conn = TcpTransport::connect(addr).map_err(err)?;
                let client = NetClient::connect(Arc::new(conn)).map_err(err)?;
                match accept(&listener, &gateway)? {
                    Accepted::Client => {}
                    _ => return Err("the client connection was not taken as a client".into()),
                }
                Ok(System {
                    front: Front::Cluster {
                        client,
                        gateway,
                        _workers: workers,
                        services,
                    },
                    _dir: None,
                })
            }
            Deploy::Local {
                storage,
                decode_batch,
                dir,
            } => {
                reset_dir(dir)?;
                let service = EngineService::new(
                    engine(storage.clone()),
                    ServiceConfig::default().decode_batch(*decode_batch),
                );
                Ok(System {
                    front: Front::Local { service },
                    _dir: Some(TempDir(dir.clone())),
                })
            }
        }
    }

    /// Submits without blocking; `None` when the front end refused it.
    pub fn submit(&self, request: Request) -> Option<ResponseStream> {
        match &self.front {
            Front::Cluster { client, .. } => Some(client.submit_stream(&request)),
            Front::Local { service } => service.try_submit_stream(request).ok(),
        }
    }

    /// Registers a chunk and precomputes its KV (at its home worker in the
    /// cluster).
    pub fn register(&self, tokens: &[TokenId]) -> Result<ChunkId, EngineError> {
        match &self.front {
            Front::Cluster { client, .. } => client.register_chunk(tokens, true),
            Front::Local { service } => service.engine().register_chunk(tokens),
        }
    }

    /// Forgets a chunk (in-process deployments only).
    pub fn unregister(&self, id: ChunkId) -> bool {
        match &self.front {
            Front::Cluster { .. } => false,
            Front::Local { service } => service.engine().unregister_chunk(id),
        }
    }

    /// Every scheduler of the deployment.
    pub fn services(&self) -> Vec<&EngineService> {
        match &self.front {
            Front::Cluster { services, .. } => services.iter().map(|s| s.as_ref()).collect(),
            Front::Local { service } => vec![service],
        }
    }

    /// Scheduler worker threads across the deployment.
    pub fn scheduler_threads(&self) -> usize {
        self.services().iter().map(|s| s.probe().workers).sum()
    }

    /// Store counters summed over every engine.
    pub fn store_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in self.services() {
            let st = s.engine().store().stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.spills += st.spills;
            total.promotions += st.promotions;
            total.loaded_bytes += st.loaded_bytes;
            total.compactions += st.compactions;
            total.compaction_reclaimed_bytes += st.compaction_reclaimed_bytes;
        }
        total
    }

    /// The gateway's counters (cluster deployments only).
    pub fn cluster_stats(&self) -> Option<ClusterStats> {
        match &self.front {
            Front::Cluster { gateway, .. } => Some(gateway.stats()),
            Front::Local { .. } => None,
        }
    }

    /// Highest queue depth any scheduler reached.
    pub fn peak_queue_depth(&self) -> u64 {
        self.services()
            .iter()
            .map(|s| s.stats().peak_queue_depth)
            .max()
            .unwrap_or(0)
    }
}

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn accept(listener: &TcpListener, gateway: &Gateway) -> Result<Accepted, SetupError> {
    let (stream, _) = listener.accept().map_err(err)?;
    let conn = TcpTransport::from_stream(stream).map_err(err)?;
    gateway.accept(Arc::new(conn)).map_err(err)
}

fn reset_dir(dir: &Path) -> Result<(), SetupError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err)?;
    }
    std::fs::create_dir_all(dir).map_err(err)
}

/// The RAM-only storage of a cluster worker or an oracle engine.
pub fn ram(capacity: u64) -> StorageConfig {
    StorageConfig::default().tier(DeviceKind::CpuRam, capacity)
}
