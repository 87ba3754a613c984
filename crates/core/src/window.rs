use ace_geom::{Interval, Layer, Rect};
use ace_wirelist::{NetId, PartialDevice};

/// A face of a rectangular window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Face {
    /// `x == window.x_min`.
    Left,
    /// `x == window.x_max`.
    Right,
    /// `y == window.y_min`.
    Bottom,
    /// `y == window.y_max`.
    Top,
}

impl Face {
    /// The face this one composes against (left↔right, top↔bottom).
    pub const fn opposite(self) -> Face {
        match self {
            Face::Left => Face::Right,
            Face::Right => Face::Left,
            Face::Bottom => Face::Top,
            Face::Top => Face::Bottom,
        }
    }
}

/// What a boundary contact carries: a net on a conducting layer, or a
/// transistor channel cut by the boundary (a *partial transistor*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySignal {
    /// A conducting-layer net.
    Net(NetId),
    /// A channel; the payload indexes the window netlist's device
    /// list.
    Channel(usize),
}

/// One element of a window's interface-segment list: geometry
/// touching the window boundary.
///
/// "Associated with each element in the interface-segment list is
/// data about the extent of contact between the rectangle edge and
/// the boundary segment, and the identity of the signal carried by
/// the rectangle." (HEXT paper §3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryContact {
    /// Which face of the window the contact lies on.
    pub face: Face,
    /// Conducting layer, or `None` for channel contacts.
    pub layer: Option<Layer>,
    /// Extent of contact along the face (x-interval for top/bottom
    /// faces, y-interval for left/right faces).
    pub span: Interval,
    /// The signal carried.
    pub signal: BoundarySignal,
}

/// Per-device channel data exposed in window mode, so the band stitch
/// and the hierarchical extractor can merge partial transistors and
/// finalize them again after composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDetail {
    /// The channel inside this window, in the window netlist's net
    /// ids, terminals coalesced and longest first.
    pub channel: PartialDevice,
    /// `true` if the channel touches the window boundary (a partial
    /// transistor whose final form depends on the neighbours).
    pub partial: bool,
}

/// Extra results produced when extracting with
/// [`crate::ExtractOptions::with_window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowExtraction {
    /// The window rectangle.
    pub window: Rect,
    /// All boundary contacts, grouped by nothing in particular;
    /// consumers filter by face.
    pub contacts: Vec<BoundaryContact>,
    /// Per-device raw data, aligned with the window netlist's device
    /// list.
    pub device_details: Vec<DeviceDetail>,
}

impl WindowExtraction {
    /// Contacts on one face, sorted by span.
    pub fn face_contacts(&self, face: Face) -> Vec<BoundaryContact> {
        let mut v: Vec<BoundaryContact> = self
            .contacts
            .iter()
            .copied()
            .filter(|c| c.face == face)
            .collect();
        v.sort_by_key(|c| (c.span.lo, c.span.hi));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_faces() {
        assert_eq!(Face::Left.opposite(), Face::Right);
        assert_eq!(Face::Top.opposite(), Face::Bottom);
        for f in [Face::Left, Face::Right, Face::Top, Face::Bottom] {
            assert_eq!(f.opposite().opposite(), f);
        }
    }

    #[test]
    fn face_contacts_filters_and_sorts() {
        let w = WindowExtraction {
            window: Rect::new(0, 0, 100, 100),
            contacts: vec![
                BoundaryContact {
                    face: Face::Top,
                    layer: Some(Layer::Metal),
                    span: Interval::new(50, 60),
                    signal: BoundarySignal::Net(NetId(1)),
                },
                BoundaryContact {
                    face: Face::Left,
                    layer: Some(Layer::Poly),
                    span: Interval::new(0, 10),
                    signal: BoundarySignal::Net(NetId(2)),
                },
                BoundaryContact {
                    face: Face::Top,
                    layer: None,
                    span: Interval::new(10, 20),
                    signal: BoundarySignal::Channel(0),
                },
            ],
            device_details: vec![DeviceDetail {
                channel: PartialDevice {
                    area: 4,
                    bbox: Rect::new(10, 90, 20, 100),
                    ..PartialDevice::default()
                },
                partial: true,
            }],
        };
        let top = w.face_contacts(Face::Top);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].span, Interval::new(10, 20));
        assert!(w.device_details[0].partial);
    }
}
