package clock

import (
	"slices"
	"testing"
)

func TestVectorCloneAndInts(t *testing.T) {
	v := Vector{3, 1, 4}
	ints := v.Ints()
	ints[1] = 99
	if v[1] == 99 {
		t.Error("Ints aliases original")
	}
	back := VectorFromInts([]int64{3, 1, 4})
	if !slices.Equal(back, v) {
		t.Errorf("round trip mismatch: %v", back)
	}
}

func TestCausallyReady(t *testing.T) {
	local := Vector{2, 1, 0}
	tests := []struct {
		name   string
		msg    Vector
		sender int
		want   bool
	}{
		{"next from sender 0", Vector{3, 1, 0}, 0, true},
		{"gap from sender 0", Vector{4, 1, 0}, 0, false},
		{"already seen", Vector{2, 1, 0}, 0, false},
		{"missing dependency", Vector{3, 2, 1}, 0, false},
		{"next from sender 2", Vector{2, 1, 1}, 2, true},
		{"dependency satisfied", Vector{1, 2, 0}, 1, true},
		{"bad sender", Vector{1, 1, 1}, 9, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CausallyReady(tt.msg, local, tt.sender); got != tt.want {
				t.Errorf("CausallyReady(%v, %v, %d) = %v, want %v", tt.msg, local, tt.sender, got, tt.want)
			}
		})
	}
}
