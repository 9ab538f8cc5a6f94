package pqueue

import "testing"

func BenchmarkPushPop(b *testing.B) {
	b.ReportAllocs()
	var q Queue[int]
	for i := 0; i < b.N; i++ {
		q.Push(i, i%64)
		if q.Len() > 128 {
			for q.Len() > 0 {
				q.Pop()
			}
		}
	}
}

func BenchmarkPushPopOrdered(b *testing.B) {
	b.ReportAllocs()
	const window = 32
	var q Queue[int]
	for i := 0; i < b.N; i++ {
		q.Push(i, i%7)
		if q.Len() == window {
			for q.Len() > 0 {
				q.Pop()
			}
		}
	}
}
