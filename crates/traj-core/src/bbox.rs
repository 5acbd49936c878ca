//! Axis-aligned bounding boxes for trajectories and spatial indexes.

/// An axis-aligned rectangle. An *empty* box has inverted bounds and
/// contains nothing; extending it with any point makes it valid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl BoundingBox {
    /// The empty box (inverted infinite bounds).
    pub fn empty() -> Self {
        BoundingBox {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Box from explicit corners (caller guarantees min ≤ max).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Whether no point has ever been added.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Grows the box to include `(x, y)`.
    pub fn extend(&mut self, x: f64, y: f64) {
        self.min_x = self.min_x.min(x);
        self.min_y = self.min_y.min(y);
        self.max_x = self.max_x.max(x);
        self.max_y = self.max_y.max(y);
    }

    /// Union with another box.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Width along x (zero for empty boxes).
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height along y (zero for empty boxes).
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Point-in-box test (closed boundaries).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// Center of the box; `(0,0)` for empty boxes.
    pub fn center(&self) -> (f64, f64) {
        if self.is_empty() {
            (0.0, 0.0)
        } else {
            (
                0.5 * (self.min_x + self.max_x),
                0.5 * (self.min_y + self.max_y),
            )
        }
    }

    /// Expands every side by `margin` (useful before grid construction so
    /// boundary points fall strictly inside).
    pub fn inflate(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        BoundingBox::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_then_extend() {
        let mut bb = BoundingBox::empty();
        assert!(bb.is_empty());
        bb.extend(1.0, 2.0);
        assert!(!bb.is_empty());
        assert_eq!(bb.width(), 0.0);
        bb.extend(-1.0, 4.0);
        assert_eq!(bb.width(), 2.0);
        assert_eq!(bb.height(), 2.0);
    }

    #[test]
    fn union_and_contains() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BoundingBox::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(1.5, 0.0));
        assert!(!a.contains(1.5, 0.0));
        assert_eq!(u.min_y, -1.0);
    }

    #[test]
    fn center_and_inflate() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 4.0);
        assert_eq!(a.center(), (1.0, 2.0));
        let i = a.inflate(1.0);
        assert_eq!(i.min_x, -1.0);
        assert_eq!(i.max_y, 5.0);
        assert_eq!(BoundingBox::empty().center(), (0.0, 0.0));
    }
}
