//! The container's single-flight key index: `Idempotency-Key`s and result
//! memo keys, each mapped to the job that answers it.
//!
//! Both kinds of key follow one protocol. The first submission to claim a
//! free key gets a [`Reservation`], creates its job *outside* the index
//! lock (the job's fsync'd journal append must not serialize every other
//! key behind one disk sync), and fills the reservation with the job id.
//! Racing submissions on the same key park until the reservation is filled
//! (then they get the winner's job) or dropped unfilled (then one of them
//! wins the key instead).
//!
//! Lock order: the index before `jobs` before the job store. The `usable`
//! check a claim runs on a mapped job takes the jobs lock under this one,
//! and nothing takes this lock while holding the jobs lock.

use std::collections::{HashMap, HashSet};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};

use mathcloud_telemetry::sync::{Condvar, Mutex, MutexGuard};

/// A single-flight key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    /// `(service, Idempotency-Key)`.
    Idem(String, String),
    /// A canonical memo key (see [`crate::memo`]); it already hashes the
    /// service name in.
    Memo(String),
}

/// Key → job id; `None` is a pending reservation.
type Map = HashMap<Key, Option<String>>;

/// See the module docs.
#[derive(Default)]
pub(crate) struct SingleFlight {
    map: Mutex<Map>,
    /// Signalled whenever a reservation is filled or dropped.
    settled: Condvar,
    /// Claims parked on `settled`, so a test can wait until a claim is
    /// parked before it settles the reservation.
    #[cfg(test)]
    parked: AtomicUsize,
}

/// What [`SingleFlight::claim`] found.
pub(crate) enum Claim<'a, T> {
    /// The key maps to a usable job; `T` is what the `usable` check
    /// returned for it.
    Mapped(T),
    /// The caller won the key: create the job, then [`Reservation::fill`].
    Reserved(Reservation<'a>),
}

impl SingleFlight {
    /// Looks `key` up, parking while another submission holds its
    /// reservation. A mapped job is returned when `usable` accepts it; a
    /// job `usable` rejects (deleted, evicted, or in a state the key must
    /// not answer with) is a stale entry, replaced by a fresh reservation
    /// for the caller.
    pub(crate) fn claim<T>(&self, key: Key, usable: impl Fn(&str) -> Option<T>) -> Claim<'_, T> {
        let mut map = self.map.lock();
        loop {
            match map.get(&key) {
                Some(Some(job)) => {
                    if let Some(found) = usable(job) {
                        return Claim::Mapped(found);
                    }
                    break;
                }
                Some(None) => {
                    #[cfg(test)]
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    self.settled.wait(&mut map);
                    #[cfg(test)]
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                }
                None => break,
            }
        }
        map.insert(key.clone(), None);
        Claim::Reserved(Reservation {
            flight: self,
            key: Some(key),
        })
    }

    /// Drops every key mapped to one of `jobs` (job ids are unique across
    /// a container's services). Pending reservations belong to in-flight
    /// submissions and are kept.
    pub(crate) fn forget<'j>(&self, jobs: impl IntoIterator<Item = &'j str>) {
        let mut map = self.map.lock();
        // Every retention eviction lands here; with no keys in use (no
        // Idempotency-Keys, memoization off) there is nothing to scan.
        if map.is_empty() {
            return;
        }
        let gone: HashSet<&str> = jobs.into_iter().collect();
        map.retain(|_, job| job.as_deref().is_none_or(|j| !gone.contains(j)));
    }

    /// Locks the index for recovery, which restores keys while it also
    /// holds the jobs lock.
    pub(crate) fn restore(&self) -> Restore<'_> {
        Restore(self.map.lock())
    }
}

/// A won key, held while its job is created. Dropping it unfilled — an
/// early return or an unwind — frees the key and wakes the waiters.
pub(crate) struct Reservation<'a> {
    flight: &'a SingleFlight,
    /// `None` once filled.
    key: Option<Key>,
}

impl Reservation<'_> {
    /// Publishes the job answering the key and wakes the waiters.
    pub(crate) fn fill(mut self, job: &str) {
        if let Some(key) = self.key.take() {
            self.flight.map.lock().insert(key, Some(job.to_string()));
            self.flight.settled.notify_all();
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut map = self.flight.map.lock();
            if map.get(&key) == Some(&None) {
                map.remove(&key);
            }
            drop(map);
            self.flight.settled.notify_all();
        }
    }
}

/// The index locked by [`SingleFlight::restore`].
pub(crate) struct Restore<'a>(MutexGuard<'a, Map>);

impl Restore<'_> {
    /// Maps `key` to `job`. With `replace` false an existing mapping is
    /// kept. Returns whether the mapping was written.
    pub(crate) fn insert(&mut self, key: Key, job: &str, replace: bool) -> bool {
        if !replace && self.0.contains_key(&key) {
            return false;
        }
        self.0.insert(key, Some(job.to_string()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idem(k: &str) -> Key {
        Key::Idem("svc".into(), k.into())
    }

    fn reserve(flight: &SingleFlight, key: Key) -> Reservation<'_> {
        match flight.claim(key, |j| Some(j.to_string())) {
            Claim::Reserved(r) => r,
            Claim::Mapped(job) => panic!("key already maps to {job}"),
        }
    }

    fn mapped(flight: &SingleFlight, key: Key) -> Option<String> {
        match flight.claim(key, |j| Some(j.to_string())) {
            Claim::Mapped(job) => Some(job),
            Claim::Reserved(_) => None,
        }
    }

    #[test]
    fn filled_reservation_answers_later_claims() {
        let flight = SingleFlight::default();
        reserve(&flight, idem("k")).fill("j-1");
        assert_eq!(mapped(&flight, idem("k")).as_deref(), Some("j-1"));
        // A job the check rejects is stale: the claimant gets the key.
        assert!(matches!(
            flight.claim(idem("k"), |_| None::<()>),
            Claim::Reserved(_)
        ));
    }

    #[test]
    fn dropped_reservation_wakes_a_parked_waiter_who_then_wins_the_key() {
        let flight = SingleFlight::default();
        let first = reserve(&flight, idem("k"));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                matches!(
                    flight.claim(idem("k"), |j| Some(j.to_string())),
                    Claim::Reserved(_)
                )
            });
            // The waiter bumps `parked` under the map lock and releases the
            // lock only by parking, so the drop below must wake it.
            while flight.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            drop(first);
            assert!(waiter.join().unwrap(), "the next claimant wins the key");
        });
        // The winner's reservation was dropped in turn: the key is free.
        assert!(mapped(&flight, idem("k")).is_none());
    }

    #[test]
    fn forget_frees_every_key_of_a_job_and_keeps_pending_reservations() {
        let flight = SingleFlight::default();
        reserve(&flight, idem("a")).fill("j-1");
        reserve(&flight, idem("b")).fill("j-1");
        reserve(&flight, Key::Memo("m".into())).fill("j-1");
        reserve(&flight, idem("other")).fill("j-2");
        let pending = reserve(&flight, idem("pending"));

        flight.forget(["j-1"]);

        for key in [idem("a"), idem("b"), Key::Memo("m".into())] {
            assert!(mapped(&flight, key.clone()).is_none(), "{key:?} freed");
        }
        assert_eq!(mapped(&flight, idem("other")).as_deref(), Some("j-2"));
        // The in-flight submission still owns its key and can fill it.
        assert_eq!(flight.map.lock().get(&idem("pending")), Some(&None));
        pending.fill("j-3");
        assert_eq!(mapped(&flight, idem("pending")).as_deref(), Some("j-3"));
    }

    #[test]
    fn restore_replaces_only_when_asked() {
        let flight = SingleFlight::default();
        let mut keys = flight.restore();
        assert!(keys.insert(Key::Memo("m".into()), "j-1", false));
        assert!(!keys.insert(Key::Memo("m".into()), "j-2", false));
        assert!(keys.insert(Key::Memo("m".into()), "j-3", true));
        drop(keys);
        assert_eq!(
            mapped(&flight, Key::Memo("m".into())).as_deref(),
            Some("j-3")
        );
    }
}
