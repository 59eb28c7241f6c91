// Fixture for exportuse: package a declares the names; b, c's test file,
// a's external test package and the benchmark stand-in refer to them.
package a

import "fmt"

func Flagged() {} // want "exported func Flagged is used by no other package; unexport it"

func Dead() {} // want "exported func Dead is used by no other package and by no non-test code; delete it"

func UsedByB() {}

func UsedByCTest() {}

func UsedByXTest() {}

func UsedByBench() {}

// T's String satisfies fmt.Stringer, so it needs no user; its tagged
// field is wire format.
type T struct {
	Tagged   int `json:"tagged"`
	Untagged int // want "exported field T.Untagged is used by no other package; unexport it"
}

func (T) String() string { return "t" }

// Set's methods are reached through an instance, Set[int].
type Set[E any] struct{ items []E }

func (s *Set[E]) Add(e E) { s.items = append(s.items, e) }

//lint:ignore exportuse kept for callers outside the module
func Waived() {}

// want-below "has no reason"
//lint:ignore exportuse
func Unwaived() {} // want "exported func Unwaived is used by no other package"

func use() {
	Flagged()
	Unwaived()
	Waived()
	fmt.Println(T{}.Untagged)
}
