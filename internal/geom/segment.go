package geom

// Segment is the closed line segment from A to B.
type Segment struct {
	A, B Point
}
