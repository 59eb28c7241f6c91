package b

import "fix/a"

func use() {
	a.UsedByB()
	var s a.Set[int]
	s.Add(1)
	_ = a.T{Tagged: 1}
}
