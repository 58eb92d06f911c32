//! The name server.
//!
//! "A server module exports an interface through a clerk in the LRPC
//! run-time library included in every domain. The clerk registers the
//! interface with a name server and awaits import requests from clients"
//! (Section 3.1). The name server itself is a kernel-adjacent service:
//! a table from interface names to registered exports, with blocking
//! import (the importer waits while the kernel notifies the server's
//! waiting clerk).
//!
//! The payload type is generic so the LRPC runtime can register clerks and
//! the message-RPC baseline can register ports.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// A table of named exports with blocking lookup.
///
/// The table is a process-global lock (reported to
/// [`firefly::meter::note_global_lock`]); it is only consulted at bind
/// time, never during a call.
pub struct NameServer<T> {
    table: Mutex<HashMap<String, T>>,
    registered: Condvar,
}

impl<T: Clone> NameServer<T> {
    /// Creates an empty name server.
    pub fn new() -> NameServer<T> {
        NameServer {
            table: Mutex::new(HashMap::new()),
            registered: Condvar::new(),
        }
    }

    /// Registers (or replaces) an export under `name` and wakes any
    /// waiting importers.
    pub fn register(&self, name: impl Into<String>, export: T) {
        firefly::meter::note_global_lock();
        self.table.lock().insert(name.into(), export);
        self.registered.notify_all();
    }

    /// Removes every export matching `pred` (used when a domain
    /// terminates), returning the removed names.
    pub fn unregister_matching(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<String> {
        firefly::meter::note_global_lock();
        let mut table = self.table.lock();
        let names: Vec<String> = table
            .iter()
            .filter(|(_, v)| pred(v))
            .map(|(k, _)| k.clone())
            .collect();
        for n in &names {
            table.remove(n);
        }
        names
    }

    /// Non-blocking lookup.
    pub fn lookup(&self, name: &str) -> Option<T> {
        firefly::meter::note_global_lock();
        self.table.lock().get(name).cloned()
    }

    /// Blocking import: waits up to `timeout` for `name` to be registered.
    ///
    /// Returns `None` on timeout. This models the importer waiting while
    /// the kernel notifies the server's clerk.
    pub fn import_wait(&self, name: &str, timeout: Duration) -> Option<T> {
        firefly::meter::note_global_lock();
        let mut table = self.table.lock();
        loop {
            if let Some(v) = table.get(name) {
                return Some(v.clone());
            }
            if self.registered.wait_for(&mut table, timeout).timed_out() {
                return table.get(name).cloned();
            }
        }
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        firefly::meter::note_global_lock();
        self.table.lock().len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered names.
    pub fn names(&self) -> Vec<String> {
        firefly::meter::note_global_lock();
        self.table.lock().keys().cloned().collect()
    }
}

impl<T: Clone> Default for NameServer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_lookup_unregister() {
        let ns = NameServer::new();
        ns.register("FileServer", 7u32);
        assert_eq!(ns.lookup("FileServer"), Some(7));
        assert_eq!(ns.unregister_matching(|&v| v == 7), ["FileServer"]);
        assert_eq!(ns.lookup("FileServer"), None);
    }

    #[test]
    fn import_wait_times_out_when_absent() {
        let ns: NameServer<u32> = NameServer::new();
        assert_eq!(ns.import_wait("nope", Duration::from_millis(10)), None);
    }

    #[test]
    fn import_wait_wakes_on_registration() {
        let ns = Arc::new(NameServer::new());
        let waiter = {
            let ns = Arc::clone(&ns);
            std::thread::spawn(move || ns.import_wait("Window", Duration::from_secs(5)))
        };
        // Give the importer a moment to start waiting, then register.
        std::thread::sleep(Duration::from_millis(20));
        ns.register("Window", 42u32);
        assert_eq!(waiter.join().unwrap(), Some(42));
    }

    #[test]
    fn unregister_matching_sweeps_by_payload() {
        let ns = NameServer::new();
        ns.register("a", 1u32);
        ns.register("b", 2u32);
        ns.register("c", 1u32);
        let mut removed = ns.unregister_matching(|v| *v == 1);
        removed.sort();
        assert_eq!(removed, vec!["a".to_string(), "c".to_string()]);
        assert_eq!(ns.len(), 1);
    }
}
