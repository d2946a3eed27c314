//! The [`Template`] newtype: an encoded biometric feature vector.

/// An encoded biometric template: an `n`-dimensional integer feature
/// vector, the common input format of both the proposed protocol and the
/// normal approach (Sec. VII: "both … use the same format of data as
/// input").
///
/// ```rust
/// use fe_biometric::Template;
///
/// let t = Template::new(vec![10, -20, 30]);
/// assert_eq!(t.dim(), 3);
/// assert_eq!(t.features()[1], -20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    features: Vec<i64>,
}

impl Template {
    /// Wraps a feature vector.
    pub fn new(features: Vec<i64>) -> Self {
        Template { features }
    }

    /// Number of feature dimensions.
    pub fn dim(&self) -> usize {
        self.features.len()
    }

    /// Borrows the features.
    pub fn features(&self) -> &[i64] {
        &self.features
    }

    /// Consumes the template, returning the feature vector.
    pub fn into_features(self) -> Vec<i64> {
        self.features
    }

    /// `true` when every feature lies in `[min, max]`.
    pub fn in_range(&self, min: i64, max: i64) -> bool {
        self.features.iter().all(|&f| (min..=max).contains(&f))
    }
}

impl From<Vec<i64>> for Template {
    fn from(v: Vec<i64>) -> Self {
        Template::new(v)
    }
}

impl AsRef<[i64]> for Template {
    fn as_ref(&self) -> &[i64] {
        &self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = Template::new(vec![1, 2, 3]);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.as_ref(), &[1, 2, 3]);
        assert_eq!(t.clone().into_features(), vec![1, 2, 3]);
    }

    #[test]
    fn range_check() {
        let t = Template::new(vec![-5, 0, 5]);
        assert!(t.in_range(-5, 5));
        assert!(!t.in_range(-4, 5));
        assert!(!t.in_range(-5, 4));
        assert!(Template::new(vec![]).in_range(0, 0));
    }

    #[test]
    fn from_vec() {
        let t: Template = vec![7i64, 8].into();
        assert_eq!(t.dim(), 2);
    }
}
