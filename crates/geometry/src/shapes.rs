//! Signed distance functions (SDFs) for vessel lumen construction.
//!
//! All anatomies are built as unions of *tapered capsules* — line segments
//! with a linearly varying radius — which model vessel segments well and
//! have a cheap, robust distance function. An SDF is negative inside the
//! shape; voxelization marks a cell fluid when the SDF at its centre is
//! negative.

/// A point or vector in 3-D space (millimetres).
///
/// Deliberately provides inherent `add`/`sub` methods rather than operator
/// overloads: the handful of call sites stay explicit and the type stays
/// dependency- and boilerplate-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

#[allow(clippy::should_implement_trait)] // explicit add/sub by design
impl Vec3 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Componentwise sum.
    #[inline]
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }

    /// Componentwise difference.
    #[inline]
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    /// Scalar multiple.
    #[inline]
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction.
    ///
    /// # Panics
    /// Panics (in debug builds) on the zero vector.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "normalizing zero vector");
        self.scale(1.0 / n)
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }
}

/// Shapes that expose a signed distance: negative inside, positive outside.
pub trait Sdf {
    /// Signed distance from `p` to the surface, in the same units as the
    /// coordinates (mm).
    fn distance(&self, p: Vec3) -> f64;
}

/// A line segment swept by a linearly varying radius: a tapered capsule.
///
/// This is the building block for vessels: `radius_a` at endpoint `a`
/// tapers to `radius_b` at endpoint `b`, with hemispherical caps. The
/// distance below is the standard capsule distance with the radius
/// interpolated at the closest parameter — exact for mild tapers, and more
/// than accurate enough at voxel resolution.
#[derive(Debug, Clone, Copy)]
pub struct TaperedCapsule {
    /// First endpoint.
    pub a: Vec3,
    /// Second endpoint.
    pub b: Vec3,
    /// Radius at `a` (mm).
    pub radius_a: f64,
    /// Radius at `b` (mm).
    pub radius_b: f64,
}

impl Sdf for TaperedCapsule {
    #[inline]
    fn distance(&self, p: Vec3) -> f64 {
        let ab = self.b.sub(self.a);
        let len2 = ab.dot(ab);
        let t = if len2 == 0.0 {
            0.0
        } else {
            (p.sub(self.a).dot(ab) / len2).clamp(0.0, 1.0)
        };
        let closest = self.a.add(ab.scale(t));
        let r = self.radius_a + t * (self.radius_b - self.radius_a);
        p.sub(closest).norm() - r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a.add(b), Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a.sub(b), Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a.dot(b), 4.0 - 10.0 + 18.0);
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-12);
        let c = Vec3::new(1.0, 0.0, 0.0).cross(Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(c, Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn capsule_reduces_to_sphere_on_degenerate_segment() {
        let c = TaperedCapsule {
            a: Vec3::new(1.0, 1.0, 1.0),
            b: Vec3::new(1.0, 1.0, 1.0),
            radius_a: 0.5,
            radius_b: 0.5,
        };
        for p in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.2, 1.0, 1.0),
            Vec3::new(5.0, -2.0, 3.0),
        ] {
            let sphere = p.sub(c.a).norm() - 0.5;
            assert!((c.distance(p) - sphere).abs() < 1e-12);
        }
    }

    #[test]
    fn capsule_taper_interpolates_radius() {
        let c = TaperedCapsule {
            a: Vec3::new(0.0, 0.0, 0.0),
            b: Vec3::new(10.0, 0.0, 0.0),
            radius_a: 2.0,
            radius_b: 1.0,
        };
        // At the midpoint the radius is 1.5; a point 1.5 off-axis is on the
        // surface.
        assert!(c.distance(Vec3::new(5.0, 1.5, 0.0)).abs() < 1e-12);
        // Near endpoint a the radius is 2.
        assert!(c.distance(Vec3::new(0.0, 2.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn capsule_clamps_to_endpoints() {
        let c = TaperedCapsule {
            a: Vec3::new(0.0, 0.0, 0.0),
            b: Vec3::new(10.0, 0.0, 0.0),
            radius_a: 1.0,
            radius_b: 1.0,
        };
        // Beyond endpoint b, distance is measured to the cap.
        assert!((c.distance(Vec3::new(12.0, 0.0, 0.0)) - 1.0).abs() < 1e-12);
    }
}
