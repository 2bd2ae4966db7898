//! The program registry: what a daemon can spawn.
//!
//! The 1997 daemon exec'd program images from disk (or mobile code via
//! a playground). In the simulator a "program image" is a factory
//! closure producing an [`Actor`] from its argument bytes. The
//! registry is shared by all daemons of one world — the moral
//! equivalent of a shared filesystem of binaries — and `Send + Sync`,
//! because those daemons may sit in different regions of the world,
//! driven by different worker threads.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bytes::Bytes;

use snipe_netsim::actor::Actor;
use snipe_util::error::SnipeResult;

/// Everything a program factory learns at spawn time.
#[derive(Clone, Debug)]
pub struct SpawnCtx {
    /// Opaque argument bytes from the spawn request.
    pub args: Bytes,
    /// The globally unique process key the daemon assigned (or the
    /// fixed key a migrating process carried with it).
    pub proc_key: u64,
}

/// Factory signature: spawn context → a fresh process actor, or an
/// error when the spawn arguments are unusable (e.g. a corrupt
/// migration payload arriving over a chaotic wire). Factories must
/// never panic on hostile argument bytes.
pub type ProgramFactory = Box<dyn Fn(&SpawnCtx) -> SnipeResult<Box<dyn Actor>> + Send + Sync>;

/// A shared, name-indexed collection of spawnable programs.
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<ProgramFactory>>>>,
}

impl ProgramRegistry {
    /// Empty registry.
    pub fn new() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// Register an infallible program under a name (overwrites). Most
    /// programs ignore their argument bytes or tolerate any value;
    /// those that parse them should use [`ProgramRegistry::register_fallible`].
    pub fn register(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&SpawnCtx) -> Box<dyn Actor> + Send + Sync + 'static,
    ) {
        self.register_fallible(name, move |ctx| Ok(factory(ctx)));
    }

    /// Register a program whose factory can reject its spawn context.
    pub fn register_fallible(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&SpawnCtx) -> SnipeResult<Box<dyn Actor>> + Send + Sync + 'static,
    ) {
        self.inner
            .write()
            .expect("registry poisoned")
            .insert(name.into(), Arc::new(Box::new(factory)));
    }

    /// Instantiate a program: `None` if unknown, `Some(Err)` if the
    /// factory rejected the spawn context.
    pub fn instantiate(&self, name: &str, ctx: &SpawnCtx) -> Option<SnipeResult<Box<dyn Actor>>> {
        let f = self.inner.read().expect("registry poisoned").get(name).cloned()?;
        Some(f(ctx))
    }

    /// Is a program registered?
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().expect("registry poisoned").contains_key(name)
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry poisoned").len()
    }

    /// True if no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().expect("registry poisoned").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snipe_netsim::actor::{Event, SimCtx};

    struct Nop;
    impl Actor for Nop {
        fn on_event(&mut self, _ctx: &mut dyn SimCtx, _event: Event) {}
    }

    #[test]
    fn register_and_instantiate() {
        let r = ProgramRegistry::new();
        assert!(r.is_empty());
        r.register("nop", |_| Box::new(Nop));
        assert!(r.contains("nop"));
        assert_eq!(r.len(), 1);
        let sctx = SpawnCtx { args: Bytes::new(), proc_key: 1 };
        assert!(r.instantiate("nop", &sctx).expect("registered").is_ok());
        assert!(r.instantiate("missing", &sctx).is_none());
    }

    #[test]
    fn fallible_factory_rejects_bad_args() {
        let r = ProgramRegistry::new();
        r.register_fallible("picky", |sctx| {
            if sctx.args.is_empty() {
                return Err(snipe_util::error::SnipeError::Codec("empty args".into()));
            }
            Ok(Box::new(Nop) as Box<dyn Actor>)
        });
        let bad = SpawnCtx { args: Bytes::new(), proc_key: 1 };
        let good = SpawnCtx { args: Bytes::from_static(b"x"), proc_key: 1 };
        assert!(r.instantiate("picky", &bad).expect("registered").is_err());
        assert!(r.instantiate("picky", &good).expect("registered").is_ok());
    }

    #[test]
    fn clones_share_state() {
        let r = ProgramRegistry::new();
        let r2 = r.clone();
        r.register("nop", |_| Box::new(Nop));
        assert!(r2.contains("nop"));
    }
}
