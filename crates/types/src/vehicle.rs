//! Fleet tenant identity.
//!
//! The paper evaluates a single Turtlebot3 against a single remote
//! server, but a production deployment multiplexes one cloud across
//! many vehicles (the ROADMAP's north star). [`VehicleId`] is the
//! tenant key that namespaces everything per vehicle once a fleet
//! shares the cloud and the wireless spectrum: message envelopes,
//! trace records, cloud admissions, and uplink airtime accounting.
//!
//! Like `SpanId`/`MsgId` in `lgv-trace`, id `0` is the reserved
//! "no vehicle" sentinel ([`VehicleId::NONE`]) so that single-vehicle
//! runs — which never assign an id — stay byte-identical to the
//! pre-fleet encoder output. Fleet members are numbered from 1.

/// Identity of one vehicle (tenant) in a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VehicleId(pub u64);

impl VehicleId {
    /// The "no vehicle" sentinel used by single-vehicle runs.
    pub const NONE: VehicleId = VehicleId(0);

    /// True for the sentinel id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw id (0 = none).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_is_zero_and_default() {
        assert_eq!(VehicleId::NONE, VehicleId(0));
        assert_eq!(VehicleId::default(), VehicleId::NONE);
        assert!(VehicleId::NONE.is_none());
        assert!(!VehicleId(3).is_none());
    }

    #[test]
    fn displays_with_v_prefix() {
        assert_eq!(VehicleId(7).to_string(), "v7");
        assert_eq!(VehicleId::NONE.to_string(), "v0");
    }

    #[test]
    fn orders_by_raw_id() {
        assert!(VehicleId(1) < VehicleId(2));
        assert_eq!(VehicleId(9).raw(), 9);
    }
}
