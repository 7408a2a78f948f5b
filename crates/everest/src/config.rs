//! Declarative (config-only) service deployment.
//!
//! "Note that the all adapters, except Java, support converting of existing
//! applications to services by writing only a service configuration file,
//! i.e., without writing a code" (§3.1). This module parses that
//! configuration format and deploys the described services.
//!
//! A configuration document looks like:
//!
//! ```json
//! {
//!   "services": [
//!     {
//!       "name": "word-count",
//!       "description": "counts words with wc",
//!       "inputs":  { "text": {"type": "string"} },
//!       "outputs": { "count": {"type": "string"} },
//!       "adapter": {
//!         "type": "command",
//!         "program": "/usr/bin/wc",
//!         "args": ["-w"],
//!         "stdin": "text",
//!         "stdout": "count"
//!       },
//!       "allow": ["cert:CN=alice"],
//!       "proxies": ["CN=wms"],
//!       "tags": ["text"]
//!     }
//!   ]
//! }
//! ```
//!
//! Cluster, grid and native adapters reference named resources registered in
//! an [`AdapterRegistry`] (those resources are process-level objects and
//! cannot come from JSON).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_json::{Schema, Value};
use mathcloud_security::{AccessPolicy, Identity};
use mathcloud_telemetry::{AutoscaleConfig, AutoscaleHandle};

use crate::adapter::{ClusterAdapter, CommandAdapter, ComputeFn, GridAdapter, NativeAdapter};
use crate::container::Everest;

/// Errors from configuration parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid container configuration: {}", self.0)
    }
}

impl Error for ConfigError {}

fn err(msg: impl Into<String>) -> ConfigError {
    ConfigError(msg.into())
}

/// Named process-level resources that configuration entries may reference.
#[derive(Default)]
pub struct AdapterRegistry {
    clusters: HashMap<String, mathcloud_cluster::BatchSystem>,
    brokers: HashMap<
        String,
        (
            mathcloud_grid::ResourceBroker,
            mathcloud_grid::ProxyCredential,
        ),
    >,
    tasks: HashMap<String, ComputeFn>,
    natives: HashMap<String, Arc<NativeAdapter>>,
}

impl AdapterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AdapterRegistry::default()
    }

    /// Registers a batch system under a name.
    pub fn cluster(mut self, name: &str, cluster: mathcloud_cluster::BatchSystem) -> Self {
        self.clusters.insert(name.to_string(), cluster);
        self
    }

    /// Registers a grid broker (with its submitting proxy) under a name.
    pub fn broker(
        mut self,
        name: &str,
        broker: mathcloud_grid::ResourceBroker,
        proxy: mathcloud_grid::ProxyCredential,
    ) -> Self {
        self.brokers.insert(name.to_string(), (broker, proxy));
        self
    }

    /// Registers a compute task for cluster/grid adapters.
    pub fn task<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(
                &mathcloud_json::value::Object,
                &mathcloud_cluster::JobContext,
            ) -> Result<mathcloud_json::value::Object, String>
            + Send
            + Sync
            + 'static,
    {
        self.tasks.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Registers a native adapter (the Java-adapter path needs code).
    pub fn native(mut self, name: &str, adapter: NativeAdapter) -> Self {
        self.natives.insert(name.to_string(), Arc::new(adapter));
        self
    }
}

impl fmt::Debug for AdapterRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdapterRegistry")
            .field("clusters", &self.clusters.len())
            .field("brokers", &self.brokers.len())
            .field("tasks", &self.tasks.len())
            .field("natives", &self.natives.len())
            .finish()
    }
}

/// Handler-pool sizing from the top-level `"pool"` configuration object:
///
/// ```json
/// {
///   "pool": {
///     "adaptive": true,
///     "min_workers": 2, "max_workers": 8,
///     "high_watermark": 0.9, "low_watermark": 0.5,
///     "queue_high": 2,
///     "sustain_ticks": 2, "idle_ticks": 3,
///     "step_up": 2, "step_down": 1,
///     "tick_ms": 100
///   },
///   "services": [ … ]
/// }
/// ```
///
/// Every field is optional; missing knobs take [`AutoscaleConfig`] defaults.
/// With `"adaptive": false` (the default) only `min_workers` matters — the
/// pool is resized to it once and left alone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolConfig {
    /// Whether to run a [`mathcloud_telemetry::PoolController`] over the pool.
    pub adaptive: bool,
    /// The controller knobs (also carries `min_workers`, the fixed size used
    /// when `adaptive` is off).
    pub autoscale: AutoscaleConfig,
}

impl PoolConfig {
    /// Parses the top-level `"pool"` object; absent means defaults.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob.
    pub fn from_config(config: &Value) -> Result<Self, ConfigError> {
        let Some(doc) = config.get("pool") else {
            return Ok(PoolConfig::default());
        };
        if doc.as_object().is_none() {
            return Err(err("\"pool\" must be an object"));
        }
        let mut auto = AutoscaleConfig::default();
        let usize_field = |key: &str, default: usize| -> Result<usize, ConfigError> {
            match doc.int_field(key) {
                None if doc.get(key).is_some() => {
                    Err(err(format!("pool.{key} must be an integer")))
                }
                None => Ok(default),
                Some(v) if v < 0 => Err(err(format!("pool.{key} must be non-negative"))),
                Some(v) => Ok(v as usize),
            }
        };
        let f64_field = |key: &str, default: f64| -> Result<f64, ConfigError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| err(format!("pool.{key} must be a number"))),
            }
        };
        auto.min_workers = usize_field("min_workers", auto.min_workers)?;
        // The *default* max follows an explicit min upward; an explicit max
        // below min is a contradiction and fails validation below.
        auto.max_workers = usize_field("max_workers", auto.max_workers.max(auto.min_workers))?;
        auto.high_watermark = f64_field("high_watermark", auto.high_watermark)?;
        auto.low_watermark = f64_field("low_watermark", auto.low_watermark)?;
        auto.queue_high = usize_field("queue_high", auto.queue_high)?;
        auto.sustain_ticks = usize_field("sustain_ticks", auto.sustain_ticks)?;
        auto.idle_ticks = usize_field("idle_ticks", auto.idle_ticks)?;
        auto.step_up = usize_field("step_up", auto.step_up)?;
        auto.step_down = usize_field("step_down", auto.step_down)?;
        auto.tick = Duration::from_millis(
            usize_field("tick_ms", auto.tick.as_millis() as usize)?.max(1) as u64,
        );
        auto.validate().map_err(|e| err(format!("pool: {e}")))?;
        let adaptive = match doc.get("adaptive") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err("pool.adaptive must be a boolean"))?,
        };
        Ok(PoolConfig {
            adaptive,
            autoscale: auto,
        })
    }

    /// Applies the sizing to a container: the pool is resized to
    /// `min_workers`, and when `adaptive` is on (and the size range is not
    /// degenerate) an autoscaling controller is spawned on a background
    /// thread. The returned handle stops the controller on drop; call
    /// [`AutoscaleHandle::detach`] for daemon semantics.
    pub fn apply(&self, everest: &Everest) -> Option<AutoscaleHandle> {
        everest.resize_pool(self.autoscale.min_workers);
        if self.adaptive && self.autoscale.min_workers != self.autoscale.max_workers {
            Some(everest.autoscaler(self.autoscale.clone()).spawn())
        } else {
            None
        }
    }
}

/// Durable-job-store settings from the top-level `"journal"` configuration
/// object:
///
/// ```json
/// {
///   "journal": {
///     "path": "/var/lib/mathcloud/jobs.jsonl",
///     "compact_every": 1024,
///     "retain_terminal": 10000
///   },
///   "services": [ … ]
/// }
/// ```
///
/// Absent means no journal: job state stays in memory only. `compact_every`
/// defaults to [`crate::jobstore::DEFAULT_COMPACT_EVERY`]. `retain_terminal`
/// caps the terminal job records the container keeps
/// ([`Everest::set_terminal_retention`]); absent means unlimited.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalConfig {
    /// The journal file; `None` leaves the container in-memory.
    pub path: Option<std::path::PathBuf>,
    /// Appended records between compactions.
    pub compact_every: Option<usize>,
    /// Terminal job records to retain; `None` means unlimited.
    pub retain_terminal: Option<usize>,
}

impl JournalConfig {
    /// Parses the top-level `"journal"` object; absent means no journal.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob.
    pub fn from_config(config: &Value) -> Result<Self, ConfigError> {
        let Some(doc) = config.get("journal") else {
            return Ok(JournalConfig::default());
        };
        if doc.as_object().is_none() {
            return Err(err("\"journal\" must be an object"));
        }
        let path = match doc.get("path") {
            None => return Err(err("journal.path is required")),
            Some(v) => v
                .as_str()
                .map(std::path::PathBuf::from)
                .ok_or_else(|| err("journal.path must be a string"))?,
        };
        let compact_every = match doc.get("compact_every") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(n) if n > 0 => Some(n as usize),
                _ => return Err(err("journal.compact_every must be a positive integer")),
            },
        };
        let retain_terminal = match doc.get("retain_terminal") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(n) if n > 0 => Some(n as usize),
                _ => return Err(err("journal.retain_terminal must be a positive integer")),
            },
        };
        Ok(JournalConfig {
            path: Some(path),
            compact_every,
            retain_terminal,
        })
    }

    /// Arms the journal on a container (recovering its contents), when a
    /// path is configured. Call after services are deployed so re-queued
    /// jobs find their adapters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] wrapping the I/O failure.
    pub fn apply(
        &self,
        everest: &Everest,
    ) -> Result<Option<crate::container::RecoveryReport>, ConfigError> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        let compact_every = self
            .compact_every
            .unwrap_or(crate::jobstore::DEFAULT_COMPACT_EVERY);
        // Retention applies before recovery so a replayed history longer
        // than the cap is trimmed as it is attached.
        if let Some(cap) = self.retain_terminal {
            everest.set_terminal_retention(cap);
        }
        everest
            .attach_job_journal_with(path, compact_every)
            .map(Some)
            .map_err(|e| err(format!("journal {}: {e}", path.display())))
    }
}

/// Result-memoization settings from the top-level `"memo"` configuration
/// object:
///
/// ```json
/// {
///   "memo": { "enabled": true },
///   "services": [ … ]
/// }
/// ```
///
/// Absent means memoization stays off ([`Everest::set_result_memoization`]
/// is opt-in: the cache assumes pure adapters). With a `"journal"`
/// configured too, memo keys are journaled with their jobs, so cache hits
/// survive restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoConfig {
    /// Whether result memoization is switched on.
    pub enabled: bool,
}

impl MemoConfig {
    /// Parses the top-level `"memo"` object; absent means disabled.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob.
    pub fn from_config(config: &Value) -> Result<Self, ConfigError> {
        let Some(doc) = config.get("memo") else {
            return Ok(MemoConfig::default());
        };
        if doc.as_object().is_none() {
            return Err(err("\"memo\" must be an object"));
        }
        let enabled = match doc.get("enabled") {
            None => return Err(err("memo.enabled is required")),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err("memo.enabled must be a boolean"))?,
        };
        Ok(MemoConfig { enabled })
    }

    /// Applies the switch to a container.
    pub fn apply(&self, everest: &Everest) {
        everest.set_result_memoization(self.enabled);
    }
}

/// Server-edge sizing from the top-level `"server"` object:
///
/// ```json
/// {
///   "server": {
///     "workers": 8,
///     "idle_timeout_ms": 10000,
///     "read_timeout_ms": 30000,
///     "max_connections": 1024,
///     "max_header_bytes": 65536,
///     "max_body_bytes": 1073741824
///   },
///   "services": [ … ]
/// }
/// ```
///
/// Every knob is optional and defaults to
/// [`mathcloud_http::ServerConfig::default`]; an absent `"server"` object
/// means all defaults. The result feeds [`crate::rest::serve_with_config`].
#[derive(Debug, Clone, Default)]
pub struct ServerEdgeConfig {
    /// The parsed edge settings, ready for `Server::bind_with_config`.
    pub http: mathcloud_http::ServerConfig,
}

impl ServerEdgeConfig {
    /// Parses the top-level `"server"` object; absent means defaults.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob.
    pub fn from_config(config: &Value) -> Result<Self, ConfigError> {
        let mut http = mathcloud_http::ServerConfig::default();
        let Some(doc) = config.get("server") else {
            return Ok(ServerEdgeConfig { http });
        };
        if doc.as_object().is_none() {
            return Err(err("\"server\" must be an object"));
        }
        fn positive(doc: &Value, key: &str) -> Result<Option<u64>, ConfigError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => match v.as_u64() {
                    Some(n) if n > 0 => Ok(Some(n)),
                    _ => Err(err(format!("server.{key} must be a positive integer"))),
                },
            }
        }
        if let Some(n) = positive(doc, "workers")? {
            http.workers = n as usize;
        }
        if let Some(ms) = positive(doc, "idle_timeout_ms")? {
            http.idle_timeout = std::time::Duration::from_millis(ms);
        }
        if let Some(ms) = positive(doc, "read_timeout_ms")? {
            http.read_timeout = std::time::Duration::from_millis(ms);
        }
        if let Some(n) = positive(doc, "max_connections")? {
            http.max_connections = n as usize;
        }
        if let Some(n) = positive(doc, "max_header_bytes")? {
            http.max_header_bytes = n as usize;
        }
        if let Some(n) = positive(doc, "max_body_bytes")? {
            http.max_body_bytes = n as usize;
        }
        Ok(ServerEdgeConfig { http })
    }
}

/// Everything [`load_config_full`] produced from one configuration document.
#[derive(Debug)]
pub struct LoadedConfig {
    /// Deployed service names, in document order.
    pub services: Vec<String>,
    /// The parsed pool sizing (defaults when the document had no `"pool"`).
    pub pool: PoolConfig,
    /// The running autoscaler, when `pool.adaptive` asked for one.
    pub autoscaler: Option<AutoscaleHandle>,
    /// The parsed journal settings (empty when the document had none).
    pub journal: JournalConfig,
    /// The parsed memoization switch (off when the document had no
    /// `"memo"`).
    pub memo: MemoConfig,
    /// What the journal recovered, when one was configured.
    pub recovery: Option<crate::container::RecoveryReport>,
    /// The parsed server-edge sizing (defaults when the document had no
    /// `"server"`), for [`crate::rest::serve_with_config`].
    pub server: ServerEdgeConfig,
}

/// Parses a configuration document and deploys every service it describes.
///
/// Returns the deployed service names. Pool sizing (`"pool"`) is applied
/// too; an adaptive controller, if configured, is left running detached —
/// use [`load_config_full`] to own its handle.
///
/// # Errors
///
/// [`ConfigError`] naming the offending entry; earlier valid entries are
/// still deployed.
pub fn load_config(
    everest: &Everest,
    config: &Value,
    registry: &AdapterRegistry,
) -> Result<Vec<String>, ConfigError> {
    let loaded = load_config_full(everest, config, registry)?;
    if let Some(handle) = loaded.autoscaler {
        handle.detach();
    }
    Ok(loaded.services)
}

/// [`load_config`], but returning the parsed pool configuration and the
/// autoscaler handle alongside the deployed service names.
///
/// # Errors
///
/// See [`load_config`]. Pool configuration is validated before any service
/// deploys, so a bad `"pool"` object rejects the whole document up front.
pub fn load_config_full(
    everest: &Everest,
    config: &Value,
    registry: &AdapterRegistry,
) -> Result<LoadedConfig, ConfigError> {
    let pool = PoolConfig::from_config(config)?;
    let journal = JournalConfig::from_config(config)?;
    let memo = MemoConfig::from_config(config)?;
    let server = ServerEdgeConfig::from_config(config)?;
    let services = config
        .get("services")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing top-level \"services\" array"))?;
    let mut deployed = Vec::new();
    for (i, entry) in services.iter().enumerate() {
        let name = entry
            .str_field("name")
            .ok_or_else(|| err(format!("service #{i}: missing name")))?;
        let description = build_description(entry, name)
            .map_err(|e| err(format!("service {name:?}: {}", e.0)))?;
        let policy = build_policy(entry);
        let adapter_doc = entry
            .get("adapter")
            .ok_or_else(|| err(format!("service {name:?}: missing adapter")))?;
        deploy_with_adapter(everest, description, policy, adapter_doc, registry)
            .map_err(|e| err(format!("service {name:?}: {}", e.0)))?;
        deployed.push(name.to_string());
    }
    // The memo switch flips before journal recovery so a recovering
    // container serves hits from replayed results immediately; recovery
    // itself runs after every service deploys (re-queued jobs need their
    // adapters) and before the pool is sized for traffic.
    memo.apply(everest);
    let recovery = journal.apply(everest)?;
    let autoscaler = pool.apply(everest);
    Ok(LoadedConfig {
        services: deployed,
        pool,
        autoscaler,
        journal,
        memo,
        recovery,
        server,
    })
}

fn build_description(entry: &Value, name: &str) -> Result<ServiceDescription, ConfigError> {
    let mut desc = ServiceDescription::new(name, entry.str_field("description").unwrap_or(""));
    if let Some(tags) = entry.get("tags").and_then(Value::as_array) {
        for t in tags {
            if let Some(t) = t.as_str() {
                desc = desc.tag(t);
            }
        }
    }
    for (field, is_input) in [("inputs", true), ("outputs", false)] {
        if let Some(params) = entry.get(field) {
            let obj = params
                .as_object()
                .ok_or_else(|| err(format!("{field} must be an object")))?;
            for (pname, schema_doc) in obj.iter() {
                let schema = Schema::from_value(schema_doc)
                    .map_err(|e| err(format!("parameter {pname:?}: {e}")))?;
                let optional = schema_doc
                    .get("optional")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                let mut p = Parameter::new(pname, schema);
                if optional {
                    p = p.optional();
                }
                desc = if is_input {
                    desc.input(p)
                } else {
                    desc.output(p)
                };
            }
        }
    }
    Ok(desc)
}

fn build_policy(entry: &Value) -> AccessPolicy {
    let mut policy = AccessPolicy::new();
    if let Some(allow) = entry.get("allow").and_then(Value::as_array) {
        for id in allow.iter().filter_map(Value::as_str) {
            policy.allow(Identity::decode(id));
        }
    }
    if let Some(deny) = entry.get("deny").and_then(Value::as_array) {
        for id in deny.iter().filter_map(Value::as_str) {
            policy.deny(Identity::decode(id));
        }
    }
    if let Some(proxies) = entry.get("proxies").and_then(Value::as_array) {
        for dn in proxies.iter().filter_map(Value::as_str) {
            policy.trust_proxy(dn);
        }
    }
    policy
}

/// Builds a service (description + adapter) from one configuration entry,
/// using `name` as the service name and ignoring any policy fields. The
/// PaaS layer uses this to deploy uploaded configurations into tenant
/// namespaces with its own ownership policies.
///
/// # Errors
///
/// [`ConfigError`] naming the offending field.
pub fn build_policyless_service(
    name: &str,
    entry: &Value,
    registry: &AdapterRegistry,
) -> Result<(ServiceDescription, Box<dyn crate::adapter::Adapter>), ConfigError> {
    let description = build_description(entry, name)?;
    let adapter_doc = entry.get("adapter").ok_or_else(|| err("missing adapter"))?;
    let adapter = build_adapter(adapter_doc, registry)?;
    Ok((description, adapter))
}

fn deploy_with_adapter(
    everest: &Everest,
    description: ServiceDescription,
    policy: AccessPolicy,
    adapter_doc: &Value,
    registry: &AdapterRegistry,
) -> Result<(), ConfigError> {
    let adapter = build_adapter(adapter_doc, registry)?;
    everest.deploy_with_policy_boxed(description, adapter, policy);
    Ok(())
}

fn build_adapter(
    adapter_doc: &Value,
    registry: &AdapterRegistry,
) -> Result<Box<dyn crate::adapter::Adapter>, ConfigError> {
    let kind = adapter_doc
        .str_field("type")
        .ok_or_else(|| err("adapter missing type"))?;
    match kind {
        "command" => {
            let program = adapter_doc
                .str_field("program")
                .ok_or_else(|| err("command adapter missing program"))?;
            let args: Vec<String> = adapter_doc
                .get("args")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            let mut adapter = CommandAdapter::new(program, &arg_refs);
            if let Some(stdin) = adapter_doc.str_field("stdin") {
                adapter = adapter.stdin_from(stdin);
            }
            if let Some(stdout) = adapter_doc.str_field("stdout") {
                adapter = adapter.stdout_to(stdout);
            }
            if let Some(ms) = adapter_doc.int_field("timeout_ms") {
                adapter = adapter.timeout(Duration::from_millis(ms.max(0) as u64));
            }
            Ok(Box::new(adapter))
        }
        "cluster" => {
            let cluster_name = adapter_doc
                .str_field("cluster")
                .ok_or_else(|| err("cluster adapter missing cluster"))?;
            let cluster = registry
                .clusters
                .get(cluster_name)
                .ok_or_else(|| err(format!("unknown cluster {cluster_name:?}")))?
                .clone();
            let task = resolve_task(adapter_doc, registry)?;
            let cores = adapter_doc.int_field("cores").unwrap_or(1).max(1) as usize;
            let mut adapter = ClusterAdapter::new(cluster, cores, move |o, c| task(o, c));
            if let Some(ms) = adapter_doc.int_field("walltime_ms") {
                adapter = adapter.walltime(Duration::from_millis(ms.max(0) as u64));
            }
            Ok(Box::new(adapter))
        }
        "grid" => {
            let broker_name = adapter_doc
                .str_field("broker")
                .ok_or_else(|| err("grid adapter missing broker"))?;
            let (broker, proxy) = registry
                .brokers
                .get(broker_name)
                .ok_or_else(|| err(format!("unknown broker {broker_name:?}")))?
                .clone();
            let task = resolve_task(adapter_doc, registry)?;
            let cores = adapter_doc.int_field("cores").unwrap_or(1).max(1) as usize;
            let adapter = GridAdapter::new(broker, proxy, cores, move |o, c| task(o, c));
            Ok(Box::new(adapter))
        }
        "native" => {
            let task_name = adapter_doc
                .str_field("task")
                .ok_or_else(|| err("native adapter missing task"))?;
            let native = registry
                .natives
                .get(task_name)
                .ok_or_else(|| err(format!("unknown native adapter {task_name:?}")))?
                .clone();
            struct Shared(Arc<NativeAdapter>);
            impl crate::adapter::Adapter for Shared {
                fn execute(
                    &self,
                    inputs: &mathcloud_json::value::Object,
                    ctx: &crate::adapter::AdapterContext,
                ) -> Result<mathcloud_json::value::Object, String> {
                    self.0.execute(inputs, ctx)
                }
                fn kind(&self) -> &'static str {
                    "native"
                }
            }
            Ok(Box::new(Shared(native)))
        }
        other => Err(err(format!("unknown adapter type {other:?}"))),
    }
}

fn resolve_task(adapter_doc: &Value, registry: &AdapterRegistry) -> Result<ComputeFn, ConfigError> {
    let task_name = adapter_doc
        .str_field("task")
        .ok_or_else(|| err("adapter missing task"))?;
    registry
        .tasks
        .get(task_name)
        .cloned()
        .ok_or_else(|| err(format!("unknown task {task_name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;
    use std::time::Duration;

    #[test]
    fn command_service_deploys_from_pure_config() {
        let everest = Everest::new("cfg");
        let config = json!({
            "services": [{
                "name": "word-count",
                "description": "counts words",
                "inputs": {"text": {"type": "string"}},
                "outputs": {"count": {"type": "string"}},
                "adapter": {
                    "type": "command",
                    "program": "/usr/bin/wc",
                    "args": ["-w"],
                    "stdin": "text",
                    "stdout": "count"
                },
                "tags": ["text", "unix"]
            }]
        });
        let deployed = load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert_eq!(deployed, ["word-count"]);
        let rep = everest
            .submit_sync(
                "word-count",
                &json!({"text": "one two three"}),
                None,
                Duration::from_secs(5),
            )
            .unwrap();
        let outputs = rep.outputs.expect("job done");
        assert_eq!(outputs.get("count").unwrap().as_str(), Some("3"));
        assert_eq!(
            everest.description("word-count").unwrap().tags(),
            ["text", "unix"]
        );
    }

    #[test]
    fn cluster_service_uses_registered_resources() {
        let everest = Everest::new("cfg");
        let cluster = mathcloud_cluster::BatchSystem::builder("site")
            .node("n", 2)
            .build();
        let registry =
            AdapterRegistry::new()
                .cluster("site-a", cluster)
                .task("square", |inputs, _| {
                    let n = inputs.get("n").and_then(Value::as_i64).unwrap_or(0);
                    Ok([("sq".to_string(), json!(n * n))].into_iter().collect())
                });
        let config = json!({
            "services": [{
                "name": "square",
                "description": "squares on the cluster",
                "inputs": {"n": {"type": "integer"}},
                "outputs": {"sq": {"type": "integer"}},
                "adapter": {"type": "cluster", "cluster": "site-a", "cores": 1, "task": "square"}
            }]
        });
        load_config(&everest, &config, &registry).unwrap();
        let rep = everest
            .submit_sync("square", &json!({"n": 6}), None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(rep.outputs.unwrap().get("sq").unwrap().as_i64(), Some(36));
    }

    #[test]
    fn policies_come_from_config() {
        let everest = Everest::new("cfg");
        let config = json!({
            "services": [{
                "name": "restricted",
                "description": "",
                "adapter": {"type": "command", "program": "/bin/true", "args": []},
                "allow": ["cert:CN=alice"],
                "deny": ["openid:https://id/mallory"]
            }]
        });
        load_config(&everest, &config, &AdapterRegistry::new()).unwrap();
        use crate::container::Caller;
        let alice = Caller::direct(Identity::certificate("CN=alice"));
        let bob = Caller::direct(Identity::certificate("CN=bob"));
        assert!(everest.authorize("restricted", &alice).is_ok());
        assert!(everest.authorize("restricted", &bob).is_err());
    }

    #[test]
    fn pool_config_defaults_and_overrides() {
        // No "pool" object: defaults, not adaptive.
        let p = PoolConfig::from_config(&json!({"services": []})).unwrap();
        assert!(!p.adaptive);
        assert_eq!(p.autoscale, AutoscaleConfig::default());

        let p = PoolConfig::from_config(&json!({
            "pool": {
                "adaptive": true,
                "min_workers": 2,
                "max_workers": 6,
                "high_watermark": 0.8,
                "low_watermark": 0.25,
                "queue_high": 4,
                "sustain_ticks": 3,
                "idle_ticks": 5,
                "step_up": 3,
                "step_down": 2,
                "tick_ms": 50
            }
        }))
        .unwrap();
        assert!(p.adaptive);
        let a = &p.autoscale;
        assert_eq!((a.min_workers, a.max_workers), (2, 6));
        assert_eq!((a.high_watermark, a.low_watermark), (0.8, 0.25));
        assert_eq!((a.queue_high, a.sustain_ticks, a.idle_ticks), (4, 3, 5));
        assert_eq!((a.step_up, a.step_down), (3, 2));
        assert_eq!(a.tick, Duration::from_millis(50));

        // min above the default max drags max up with it.
        let p = PoolConfig::from_config(&json!({"pool": {"min_workers": 12}})).unwrap();
        assert_eq!(p.autoscale.min_workers, 12);
        assert!(p.autoscale.max_workers >= 12);
    }

    #[test]
    fn bad_pool_configs_are_rejected() {
        for (config, needle) in [
            (json!({"pool": 3}), "must be an object"),
            (json!({"pool": {"min_workers": "two"}}), "min_workers"),
            (json!({"pool": {"min_workers": (-1)}}), "non-negative"),
            (json!({"pool": {"adaptive": "yes"}}), "adaptive"),
            (json!({"pool": {"high_watermark": "hot"}}), "high_watermark"),
            (
                json!({"pool": {"min_workers": 4, "max_workers": 2}}),
                "max_workers",
            ),
            (json!({"pool": {"min_workers": 0}}), "min_workers"),
            (
                json!({"pool": {"low_watermark": 0.9, "high_watermark": 0.5}}),
                "low_watermark",
            ),
        ] {
            let e = PoolConfig::from_config(&config).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }

    #[test]
    fn load_config_full_sizes_the_pool() {
        // Fixed sizing: pool resized to min_workers, no controller.
        let everest = Everest::with_handlers("cfg-pool", 1);
        let config = json!({
            "pool": {"min_workers": 3},
            "services": [{
                "name": "noop",
                "description": "",
                "adapter": {"type": "command", "program": "/bin/true", "args": []}
            }]
        });
        let loaded = load_config_full(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert_eq!(loaded.services, ["noop"]);
        assert!(!loaded.pool.adaptive);
        assert!(loaded.autoscaler.is_none());
        assert_eq!(everest.pool_workers(), 3);

        // Adaptive sizing: the controller handle comes back live.
        let everest = Everest::with_handlers("cfg-adaptive", 1);
        let config = json!({
            "pool": {"adaptive": true, "min_workers": 2, "max_workers": 4},
            "services": []
        });
        let loaded = load_config_full(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert!(loaded.pool.adaptive);
        assert_eq!(everest.pool_workers(), 2);
        let handle = loaded
            .autoscaler
            .expect("adaptive pool spawns a controller");
        handle.stop();

        // Degenerate adaptive range: no controller (a no-op would just burn
        // a thread).
        let everest = Everest::with_handlers("cfg-degenerate", 1);
        let config = json!({
            "pool": {"adaptive": true, "min_workers": 2, "max_workers": 2},
            "services": []
        });
        let loaded = load_config_full(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert!(loaded.autoscaler.is_none());
        assert_eq!(everest.pool_workers(), 2);
    }

    #[test]
    fn journal_config_parses_and_recovers() {
        // Absent: no journal.
        let j = JournalConfig::from_config(&json!({"services": []})).unwrap();
        assert_eq!(j, JournalConfig::default());
        assert!(j.apply(&Everest::new("cfg-nojournal")).unwrap().is_none());

        // Bad knobs are named.
        for (config, needle) in [
            (json!({"journal": 7}), "must be an object"),
            (json!({"journal": {}}), "journal.path"),
            (json!({"journal": {"path": 3}}), "journal.path"),
            (
                json!({"journal": {"path": "/tmp/x", "compact_every": 0}}),
                "compact_every",
            ),
            (
                json!({"journal": {"path": "/tmp/x", "compact_every": "lots"}}),
                "compact_every",
            ),
            (
                json!({"journal": {"path": "/tmp/x", "retain_terminal": 0}}),
                "retain_terminal",
            ),
            (
                json!({"journal": {"path": "/tmp/x", "retain_terminal": "all"}}),
                "retain_terminal",
            ),
        ] {
            let e = JournalConfig::from_config(&config).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }

        // Retention parses through; absent means unlimited.
        let j = JournalConfig::from_config(
            &json!({"journal": {"path": "/tmp/x", "retain_terminal": 500}}),
        )
        .unwrap();
        assert_eq!(j.retain_terminal, Some(500));
        let j = JournalConfig::from_config(&json!({"journal": {"path": "/tmp/x"}})).unwrap();
        assert_eq!(j.retain_terminal, None);

        // End to end: a configured journal is armed and recovers across a
        // reload of the same document.
        let dir = std::env::temp_dir().join(format!(
            "mc-cfg-journal-{}-{}",
            std::process::id(),
            mathcloud_telemetry::next_request_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let config = json!({
            "journal": {"path": (path.to_str().unwrap()), "compact_every": 64},
            "services": [{
                "name": "noop",
                "description": "",
                "adapter": {"type": "command", "program": "/bin/true", "args": []}
            }]
        });
        let everest = Everest::new("cfg-journal");
        let loaded = load_config_full(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert_eq!(
            loaded.recovery,
            Some(crate::container::RecoveryReport::default())
        );
        let rep = everest
            .submit_sync("noop", &json!({}), None, Duration::from_secs(5))
            .unwrap();
        assert!(rep.state.is_terminal());

        let everest2 = Everest::new("cfg-journal-2");
        let loaded2 = load_config_full(&everest2, &config, &AdapterRegistry::new()).unwrap();
        let recovery = loaded2.recovery.unwrap();
        assert_eq!(recovery.replayed, 1, "the finished job came back");
        assert!(everest2
            .representation("noop", rep.id.as_str())
            .unwrap()
            .state
            .is_terminal());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memo_config_parses_and_applies() {
        // Absent: memoization stays off.
        let m = MemoConfig::from_config(&json!({"services": []})).unwrap();
        assert_eq!(m, MemoConfig::default());
        assert!(!m.enabled);

        // Bad knobs are named.
        for (config, needle) in [
            (json!({"memo": true}), "must be an object"),
            (json!({"memo": {}}), "memo.enabled is required"),
            (
                json!({"memo": {"enabled": 1}}),
                "memo.enabled must be a boolean",
            ),
            (
                json!({"memo": {"enabled": "yes"}}),
                "memo.enabled must be a boolean",
            ),
        ] {
            let e = MemoConfig::from_config(&config).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }

        // End to end: the switch reaches the container and a repeat
        // submission is answered from the cache (same job id, no second
        // execution).
        let config = json!({
            "memo": {"enabled": true},
            "services": [{
                "name": "noop",
                "description": "",
                "adapter": {"type": "command", "program": "/bin/true", "args": []}
            }]
        });
        let everest = Everest::new("cfg-memo");
        let loaded = load_config_full(&everest, &config, &AdapterRegistry::new()).unwrap();
        assert!(loaded.memo.enabled);
        assert!(everest.memoization_enabled());
        let first = everest
            .submit_sync("noop", &json!({}), None, Duration::from_secs(5))
            .unwrap();
        assert!(first.state.is_terminal());
        let repeat = everest
            .submit_full("noop", &json!({}), None, None, None)
            .unwrap();
        assert!(repeat.memo_hit, "identical resubmission hits the cache");
        assert_eq!(repeat.rep.id, first.id);
        assert_eq!(everest.stats().submitted, 1, "no second job was created");
    }

    #[test]
    fn server_edge_config_parses() {
        // Absent: defaults throughout.
        let s = ServerEdgeConfig::from_config(&json!({"services": []})).unwrap();
        let defaults = mathcloud_http::ServerConfig::default();
        assert_eq!(s.http.workers, defaults.workers);
        assert_eq!(s.http.max_connections, defaults.max_connections);

        let s = ServerEdgeConfig::from_config(&json!({
            "server": {
                "workers": 4,
                "idle_timeout_ms": 2500,
                "read_timeout_ms": 9000,
                "max_connections": 64,
                "max_header_bytes": 8192,
                "max_body_bytes": 1048576
            }
        }))
        .unwrap();
        assert_eq!(s.http.workers, 4);
        assert_eq!(s.http.idle_timeout, Duration::from_millis(2500));
        assert_eq!(s.http.read_timeout, Duration::from_millis(9000));
        assert_eq!(s.http.max_connections, 64);
        assert_eq!(s.http.max_header_bytes, 8192);
        assert_eq!(s.http.max_body_bytes, 1_048_576);

        // Bad knobs are named.
        for (config, needle) in [
            (json!({"server": []}), "must be an object"),
            (json!({"server": {"workers": 0}}), "server.workers"),
            (
                json!({"server": {"idle_timeout_ms": "fast"}}),
                "server.idle_timeout_ms",
            ),
            (
                json!({"server": {"max_connections": "many"}}),
                "server.max_connections",
            ),
        ] {
            let e = ServerEdgeConfig::from_config(&config).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }

    #[test]
    fn bad_configs_are_rejected_with_context() {
        let everest = Everest::new("cfg");
        let reg = AdapterRegistry::new();
        for (config, needle) in [
            (json!({}), "services"),
            (json!({"services": [{}]}), "missing name"),
            (json!({"services": [{"name": "x"}]}), "missing adapter"),
            (
                json!({"services": [{"name": "x", "adapter": {"type": "warp"}}]}),
                "unknown adapter type",
            ),
            (
                json!({"services": [{"name": "x", "adapter": {"type": "cluster", "cluster": "c", "task": "t"}}]}),
                "unknown cluster",
            ),
            (
                json!({"services": [{"name": "x", "inputs": {"p": {"type": "odd"}}, "adapter": {"type": "command", "program": "/bin/true"}}]}),
                "parameter",
            ),
        ] {
            let e = load_config(&everest, &config, &reg).unwrap_err();
            assert!(e.to_string().contains(needle), "{e} !~ {needle}");
        }
    }
}
