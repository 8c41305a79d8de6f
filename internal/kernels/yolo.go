package kernels

import (
	"fmt"
	"math"
	"sort"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// YOLO is the paper's object-detection workload, rebuilt at laptop scale:
// a YOLO-style fully convolutional detector with a leaky-ReLU backbone
// and a grid detection head. Topology:
//
//	input 1x32x32 (synthetic scene with geometric objects)
//	conv 3x3, 8  -> 8x30x30, leaky ReLU, maxpool -> 8x15x15
//	conv 3x3, 16 -> 16x13x13, leaky ReLU, maxpool -> 16x6x6
//	conv 3x3, 8  -> 8x4x4 detection head
//
// Head channels per grid cell: [objectness, x, y, w, h, class0..class2]
// decoded exactly like YOLO (sigmoid on objectness and offsets, class =
// argmax). The weights are deterministic random projections: the paper
// does not retrain per precision and its criticality metric — "did the
// fault change the detections relative to the fault-free run of the SAME
// precision" — is meaningful for any fixed network, trained or not (see
// DESIGN.md for the substitution note). The objectness threshold is
// calibrated per instance so the golden run yields a handful of
// detections.
type YOLO struct {
	conv1, conv2, conv3 *convLayer
	image               []float64
	threshold           float64
	numClasses          int
	key                 string
}

// YOLOGrid is the detection-head edge length (grid is YOLOGrid^2 cells).
const YOLOGrid = 4

// yoloHeadChannels is objectness + 4 box coords + 3 classes.
const yoloHeadChannels = 8

// YOLOInputSize is the square input image edge length.
const YOLOInputSize = 32

// NewYOLO builds the detector and renders a deterministic input scene.
func NewYOLO(seed uint64) *YOLO {
	r := rng.New(seed)
	y := &YOLO{
		conv1:      newConvLayer(1, 8, 3, r),
		conv2:      newConvLayer(8, 16, 3, r),
		conv3:      newConvLayer(16, yoloHeadChannels, 3, r),
		numClasses: 3,
	}
	y.image = renderScene(r)

	// Calibrate the objectness threshold on the double-precision golden
	// head so the clean run reports about a quarter of the cells.
	head := Decode(fp.Double, y.Run(fp.NewMachine(fp.Double), y.Inputs(fp.Double)))
	scores := make([]float64, 0, YOLOGrid*YOLOGrid)
	for cell := 0; cell < YOLOGrid*YOLOGrid; cell++ {
		scores = append(scores, sigmoid64(head[cell])) // channel 0 = objectness
	}
	sort.Float64s(scores)
	// Keep the top 4 cells, with the threshold midway between the 4th
	// and 5th scores so that clean-run rounding differences between
	// precisions cannot flip a borderline detection.
	y.threshold = (scores[len(scores)-5] + scores[len(scores)-4]) / 2
	y.key = fmt.Sprintf("yolo/s%d", seed)
	return y
}

// Key implements Kernel.
func (y *YOLO) Key() string { return y.key }

// renderScene draws up to three geometric objects on a 32x32 canvas.
func renderScene(r *rng.Rand) []float64 {
	img := make([]float64, YOLOInputSize*YOLOInputSize)
	put := func(x, y int, v float64) {
		if x >= 0 && x < YOLOInputSize && y >= 0 && y < YOLOInputSize {
			img[y*YOLOInputSize+x] = v
		}
	}
	for obj := 0; obj < 3; obj++ {
		cx, cy := 4+r.Intn(24), 4+r.Intn(24)
		sz := 3 + r.Intn(4)
		shade := 0.5 + 0.5*r.Float64()
		switch r.Intn(3) {
		case 0: // filled square
			for dy := -sz; dy <= sz; dy++ {
				for dx := -sz; dx <= sz; dx++ {
					put(cx+dx, cy+dy, shade)
				}
			}
		case 1: // filled circle
			for dy := -sz; dy <= sz; dy++ {
				for dx := -sz; dx <= sz; dx++ {
					if dx*dx+dy*dy <= sz*sz {
						put(cx+dx, cy+dy, shade)
					}
				}
			}
		default: // filled triangle
			for dy := 0; dy <= sz*2; dy++ {
				half := dy / 2
				for dx := -half; dx <= half; dx++ {
					put(cx+dx, cy-sz+dy, shade)
				}
			}
		}
	}
	for i := range img {
		img[i] += 0.02 * r.Float64()
	}
	return img
}

// Name implements Kernel.
func (y *YOLO) Name() string { return "YOLOv3" }

// Inputs implements Kernel: the scene plus all network parameters, so
// memory faults cover weights the way CAROL-FI's variable flips do.
func (y *YOLO) Inputs(f fp.Format) [][]fp.Bits {
	w1, b1 := y.conv1.encodeParams(f)
	w2, b2 := y.conv2.encodeParams(f)
	w3, b3 := y.conv3.encodeParams(f)
	return [][]fp.Bits{encode(f, y.image), w1, b1, w2, b2, w3, b3}
}

// Run implements Kernel: the output is the raw detection head,
// channel-major (8 x 4 x 4 = 128 values). Decoding to boxes happens in
// Detections, mirroring YOLO's host-side post-processing.
func (y *YOLO) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	return y.RunInto(env, in, nil)
}

// RunInto implements OutputKernel. Each of the three layer stages is
// one closed output tile: conv1, leaky ReLU and max-pool; the same for
// conv2; and conv3 into out. A stage's live-ins are its input tensor,
// weights and bias, back to back in one pooled slice, and the first two
// stages name their pooled tensor, the head of the next stage's
// live-ins, as their output: an injected run executes only the stages
// its fault reaches.
func (y *YOLO) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	x0 := tensor{c: 1, h: YOLOInputSize, w: YOLOInputSize}
	c1h, c1w := y.conv1.outShape(x0.h, x0.w)
	x1 := tensor{c: y.conv1.outC, h: c1h / 2, w: c1w / 2}
	c2h, c2w := y.conv2.outShape(x1.h, x1.w)
	x2 := tensor{c: y.conv2.outC, h: c2h / 2, w: c2w / 2}
	oh, ow := y.conv3.outShape(x2.h, x2.w)
	n := max(y.conv1.outC*c1h*c1w, y.conv2.outC*c2h*c2w) // conv scratch
	for _, arr := range in {
		n += len(arr)
	}
	buf := getBuf(n + x1.c*x1.h*x1.w + x2.c*x2.h*x2.w)
	defer putBuf(buf)
	var st [3]yoloStage
	rest := buf.s
	for i, x := range []tensor{x0, x1, x2} {
		st[i], rest = newYOLOStage(rest, x.c*x.h*x.w, in[1+2*i], in[2+2*i])
	}
	copy(st[0].x, in[0])
	x0.data, x1.data, x2.data = st[0].x, st[1].x, st[2].x
	if _, skip := fp.SkipTile(env, 0, st[0].live, x1.data); !skip {
		leakyPoolStage(env, y.conv1, x0, &st[0], rest, x1.data)
	}
	if _, skip := fp.SkipTile(env, 1, st[1].live, x2.data); !skip {
		leakyPoolStage(env, y.conv2, x1, &st[1], rest, x2.data)
	}
	res := ensureBits(out, y.conv3.outC*oh*ow)
	if _, skip := fp.SkipTile(env, 2, st[2].live, nil); !skip {
		y.conv3.forwardInto(env, x2, st[2].w, st[2].b, res)
	}
	return res
}

// yoloStage is one YOLO layer stage's live-ins, back to back in live:
// the stage's input tensor x, then its layer's weights w and bias b.
type yoloStage struct {
	live, x, w, b []fp.Bits
}

// newYOLOStage lays out a stage's live-ins at the head of buf, with
// room for an n-element input tensor and copies of w and b, and returns
// the stage and the rest of buf.
func newYOLOStage(buf []fp.Bits, n int, w, b []fp.Bits) (yoloStage, []fp.Bits) {
	live := buf[:n+len(w)+len(b)]
	s := yoloStage{live: live, x: live[:n], w: live[n : n+len(w)], b: live[n+len(w):]}
	copy(s.w, w)
	copy(s.b, b)
	return s, buf[len(live):]
}

// leakyPoolStage runs l on x with s's weights and bias into conv, then
// leaky ReLU and a 2x2 max-pool into dst.
func leakyPoolStage(env fp.Env, l *convLayer, x tensor, s *yoloStage, conv, dst []fp.Bits) {
	c := l.forwardInto(env, x, s.w, s.b, conv)
	leakyReLUT(env, c)
	maxPool2(env, c, dst)
}

// Detection is one decoded object: box center/size normalized to [0,1],
// objectness score, and class index.
type Detection struct {
	X, Y, W, H float64
	Score      float64
	Class      int
}

// iou returns the intersection-over-union of two detections' boxes.
func iou(a, b Detection) float64 {
	ax0, ax1 := a.X-a.W/2, a.X+a.W/2
	ay0, ay1 := a.Y-a.H/2, a.Y+a.H/2
	bx0, bx1 := b.X-b.W/2, b.X+b.W/2
	by0, by1 := b.Y-b.H/2, b.Y+b.H/2
	ix := math.Max(0, math.Min(ax1, bx1)-math.Max(ax0, bx0))
	iy := math.Max(0, math.Min(ay1, by1)-math.Max(ay0, by0))
	inter := ix * iy
	union := a.W*a.H + b.W*b.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Detections decodes a Run output (as float64) into final boxes:
// threshold on sigmoid(objectness), decode offsets, then greedy NMS at
// IoU 0.5.
func (y *YOLO) Detections(head []float64) []Detection {
	const cells = YOLOGrid * YOLOGrid
	if len(head) != yoloHeadChannels*cells {
		panic(fmt.Sprintf("kernels: YOLO head length %d", len(head)))
	}
	at := func(ch, cell int) float64 { return head[ch*cells+cell] }
	var dets []Detection
	for cell := 0; cell < cells; cell++ {
		score := sigmoid64(at(0, cell))
		if score < y.threshold || math.IsNaN(score) {
			continue
		}
		row, col := cell/YOLOGrid, cell%YOLOGrid
		d := Detection{
			X:     (float64(col) + sigmoid64(at(1, cell))) / YOLOGrid,
			Y:     (float64(row) + sigmoid64(at(2, cell))) / YOLOGrid,
			W:     sigmoid64(at(3, cell)),
			H:     sigmoid64(at(4, cell)),
			Score: score,
		}
		best := 0
		for c := 1; c < y.numClasses; c++ {
			if at(5+c, cell) > at(5+best, cell) {
				best = c
			}
		}
		d.Class = best
		dets = append(dets, d)
	}
	// Greedy NMS: highest score first, drop overlaps above 0.5.
	sort.Slice(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	var kept []Detection
	for _, d := range dets {
		ok := true
		for _, k := range kept {
			if iou(d, k) > 0.5 {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}

// DetectionOutcome classifies how a faulty YOLO output differs from the
// golden one, following the paper's Fig. 11c taxonomy.
type DetectionOutcome int

const (
	// DetectionsTolerable: boxes and classes unchanged (scores may move).
	DetectionsTolerable DetectionOutcome = iota
	// DetectionChanged: a box appeared, vanished, or moved materially.
	DetectionChanged
	// ClassificationChanged: a matched box changed class.
	ClassificationChanged
)

func (o DetectionOutcome) String() string {
	switch o {
	case DetectionsTolerable:
		return "tolerable"
	case DetectionChanged:
		return "detection"
	case ClassificationChanged:
		return "classification"
	}
	return "outcome?"
}

// CompareDetections matches faulty detections against golden ones
// (greedy best-IoU) and classifies the difference. A class flip on a
// matched box dominates; otherwise any unmatched or materially moved box
// (IoU < 0.7) counts as a detection change.
func CompareDetections(golden, faulty []Detection) DetectionOutcome {
	used := make([]bool, len(faulty))
	classFlip := false
	boxChange := len(golden) != len(faulty)
	for _, g := range golden {
		bestIoU, bestIdx := 0.0, -1
		for i, f := range faulty {
			if used[i] {
				continue
			}
			if v := iou(g, f); v > bestIoU {
				bestIoU, bestIdx = v, i
			}
		}
		if bestIdx < 0 || bestIoU < 0.7 {
			boxChange = true
			continue
		}
		used[bestIdx] = true
		if faulty[bestIdx].Class != g.Class {
			classFlip = true
		}
	}
	switch {
	case classFlip:
		return ClassificationChanged
	case boxChange:
		return DetectionChanged
	default:
		return DetectionsTolerable
	}
}
