//! Minor collection after `grow` on a tenured object: the grown storage
//! lives in a nursery block under a nursery name, reachable only through
//! a tenured holder whose store predates the promotion (so it is not in
//! the remembered set) and the old name's forward edge.

use com_fpa::{Fpa, FpaFormat};
use com_mem::{gc, AllocKind, ClassId, ObjectSpace, TeamId, Word};

const TEAM: TeamId = TeamId(0);
const CLS: ClassId = ClassId(9);

/// Builds `holder -> obj`, promotes both, then grows `obj`. Returns
/// `(holder, obj, grown)`.
fn grown_behind_tenured_holder(s: &mut ObjectSpace) -> (Fpa, Fpa, Fpa) {
    let holder = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
    let obj = s.create(TEAM, CLS, 4, AllocKind::Object).unwrap();
    s.write(TEAM, obj, Word::Int(7)).unwrap();
    s.write(TEAM, holder, Word::Ptr(obj)).unwrap();
    gc::collect(s, TEAM, &[holder], &[]).unwrap(); // promote both
    assert_eq!(s.barrier_stats().remembered_segments, 0);
    let grown = s.grow(TEAM, obj, 64).unwrap();
    assert_eq!(s.read(TEAM, grown).unwrap(), Word::Int(7));
    (holder, obj, grown)
}

#[test]
fn grown_tenured_object_survives_minor_gc_via_tenured_holder() {
    let mut s = ObjectSpace::new(22, FpaFormat::COM);
    let (holder, obj, grown) = grown_behind_tenured_holder(&mut s);

    // Minor collection rooted at the tenured holder only.
    let st = gc::collect_minor(&mut s, TEAM, &[holder], &[]).unwrap();
    assert_eq!(st.swept_segments, 0);

    // The object is fully reachable: holder -> obj -(forward)-> grown.
    assert_eq!(s.read(TEAM, obj).unwrap(), Word::Int(7), "stale alias read");
    assert!(
        s.read(TEAM, grown).is_ok(),
        "grown (new) name swept by minor GC while reachable via holder->obj->forward"
    );
}

#[test]
fn grown_tenured_matches_reference_full_sweep() {
    // Differential twin: reference = one full sweep; subject = minor then
    // full. Liveness and allocated storage must match.
    let mut subject = ObjectSpace::new(22, FpaFormat::COM);
    let mut reference = ObjectSpace::new(22, FpaFormat::COM);
    let (h_s, o_s, n_s) = grown_behind_tenured_holder(&mut subject);
    let (h_r, o_r, n_r) = grown_behind_tenured_holder(&mut reference);

    gc::collect(&mut reference, TEAM, &[h_r], &[]).unwrap();
    gc::collect_minor(&mut subject, TEAM, &[h_s], &[]).unwrap();
    gc::collect(&mut subject, TEAM, &[h_s], &[]).unwrap();

    assert_eq!(
        subject.read(TEAM, o_s).is_ok(),
        reference.read(TEAM, o_r).is_ok(),
        "alias liveness diverged"
    );
    assert_eq!(
        subject.read(TEAM, n_s).is_ok(),
        reference.read(TEAM, n_r).is_ok(),
        "grown-name liveness diverged"
    );
    assert_eq!(
        subject.memory().buddy().allocated_words(),
        reference.memory().buddy().allocated_words()
    );
}
