package mapping

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hydra/internal/hw"
	"hydra/internal/isa"
)

// wireCards are the card counts every emitter strategy is pinned on.
var wireCards = [5]int{1, 2, 4, 8, 16}

// wireHash is the SHA-256 of the ISA encoding of what emit puts on a fresh
// builder over the given cards.
func wireHash(t *testing.T, cards int, emit func(*Context) error) string {
	t.Helper()
	ctx, b := newCtx(cards)
	if err := emit(ctx); err != nil {
		t.Fatal(err)
	}
	blob, err := isa.Marshal(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestEmittersWireStable pins the ISA bytes of every strategy the emitters
// expose, on 1, 2, 4, 8 and 16 cards: the programs behind Table II, Figs. 6-9
// and Table V. A change to mapping or task that is meant to leave the
// emitted instruction streams alone must leave these hashes alone.
func TestEmittersWireStable(t *testing.T) {
	scheme := hw.PaperScheme()
	times := OpTimesFor(hw.HydraCard(), scheme, 25, hw.HydraNetwork().IntraServer.Transfer(float64(scheme.CiphertextBytes(25))))
	boot := DefaultBootstrapOptions(scheme, 1, times)
	for _, tc := range []struct {
		name string
		emit func(*Context) error
		want [5]string // on 1, 2, 4, 8 and 16 cards
	}{
		{"conv", func(c *Context) error { return c.DistributeBroadcast(1000, ConvBNUnit, 12, "ConvBN") }, [5]string{
			"4ba94f0b16b99c87407335507a84f55bc377397669b322c1989f9100d7fdd48e",
			"ce30ef5dd75238b445b7508e2d114198d62820200c85daab95e5f5beda793e3d",
			"519e922994516bb09488b766dd462ff407ee2e63b27d2aacb30071d9ff5569b9",
			"532cd3b1720f3e51dc7a618e2c566b483bef1eb804fd97df66db5f94af26c2e1",
			"22be45ac53d46ebe87bbd9cc16bbd277ef0027da5bf5b09644c6ef46dd49eff3",
		}},
		{"pool", func(c *Context) error { return c.DistributeBroadcast(96, PoolUnit, 5, "Pool") }, [5]string{
			"14cdc26d84c3ae5939be6b9f83e82657876ddbb8e2b369018928c33f5a07453a",
			"331ddcc4c9ae48e0c4c3d1157d303ec957f8224f4851a9991684fb5175937ce8",
			"231888ed590f425201d404dddc4cac9af156763fa1c4ae8be5fbd793c3e85ac6",
			"a5ce8bf48d6b77200241b902678ed0ded7cf6c5009a5050609ecb7da9599be4f",
			"a386134b27324090463e44edcddfc9dbe7f87bfef7f65e269ac6ef4517c3bca8",
		}},
		{"fc", func(c *Context) error { return c.FC(1000, "FC") }, [5]string{
			"c82a519a62a3952333426e9183b2deecb541ab25619aabbdd2de5a24eb2e0a2a",
			"c6c9ab89bbdd345cb6f3fa86e43204a22cb1f769110c3fb7935711b7325c82a1",
			"c773c8bdbd96d76adac7c8c67fa591f0ccb7976e0de2314233d60a520332eea1",
			"a3fab7f173a1e826b3d5e970d1110efc8d5e3a4507f9fddeb4f497d04eff8478",
			"83540c124de04d30d277985429ec81bece360e3297356eb97c7a8247c137d121",
		}},
		{"matvec", func(c *Context) error { return c.MatVec(4, 16, "DFT") }, [5]string{
			"ad9d39546ee6e1e8fba561c6fda4a5a1b19dd337592590e79a16348ae7dbdc53",
			"e45ae943507c666fbd023fa462c0d6878a86f782701c4cb0e5f55c11a279c4cb",
			"0cc6351135b82ac760878ab9d807c7d7ca1499a28d6d9f6f9430b7c6a8599a3a",
			"69eb29ea58bf1f93cefe1841e01df1a941bf6982fb7fb9e93b68ce21f7006a71",
			"a67cb0245048a6fcbfe15347b605a96d6b21a023473807ed3478604f89cc5643",
		}},
		{"pcmm", func(c *Context) error { return c.DistributeBroadcast(4096, PCMMUnit, 12, "PCMM") }, [5]string{
			"3385f95274da80568a4631764cc9d58ba3497df883d79c690ba8deb66e2a571e",
			"c4e352808a5cd660e71e0c4f41f3e4fbde64e98bf850955e309e4ff7f7430004",
			"31006d6044ef9ae5507b65d32b604041378465d23d2aa574cbc4b85fda95a47c",
			"be1f68aceee55761f549b0c1e1b0f937c000ad7e5a7ede2578156b812cbffab2",
			"d216233ff8ffe30d5e92530fb38e8ed3279b7a46781fae04c6a47aef965d575d",
		}},
		{"poly", func(c *Context) error { return c.PolyEval(59, "ReLU") }, [5]string{
			"87a8ead51de393cbd590aad640e45fffc59f1e1fbb4f347980823a1f07eca4de",
			"16cffcb6cdd1b2d53ab923cb0a76d03e01e7c6daa307b8c7cdf2326d4bd2216f",
			"41b72806c4ff2bccad4cea72c28eeeeae53d05e5a8e40bd4b8694f7cc201ee8b",
			"9595a1cd32e98d9aa43be9fe0d64a47800a90133b1cb127c1a11f5ac5f849c06",
			"385b8c593a9b00b6c9fd800906773046784bd6c0c2ef99f9023f3eb7310e62de",
		}},
		{"nonlinear", func(c *Context) error { return c.NonLinear(4, 27, 4, "GeLU") }, [5]string{
			"ce2ff28a6278844974921501e9079e719ce48a947d7b74a62ebf4d897cb6e395",
			"f38d6e04f078776e89a58782b7d9deb42d849b5ecb081a4685a31105d4d316bd",
			"bc4fbc06581787db052266aeffde500366fd3d017cba6a3494fffa8d60b01f05",
			"3f8c143d881a1f4b4a3e5af61872404c5aa7fdb0a0a9226456140ac3ba5284df",
			"dd822a89f542f5bae4bde61b8d73b5b527bee78cfb511ee1aa5b121a4421cfae",
		}},
		{"bootstrap-batch", func(c *Context) error { return c.BootstrapBatch(2, boot, times, "Boot") }, [5]string{
			"751523303bf3b531e9cf9307684fcd0f0c47f544176291fba368d76eed8c0384",
			"a6ee8d609de03deafe3473b54b7384db14706da09be4931a9ea918d087a5435a",
			"741ba8ebd79f8e9d72219ee6c8c1094857ab30c74e1771a4527dd8b5458ea156",
			"4f601b771463f7480b624ac7fb0e2adbe5c758ce02910ace17f540118edff26c",
			"4b6a118981211f9bac78086388e15de78d610daf0c43398b84b17f3cdc54abc4",
		}},
	} {
		for i, cards := range wireCards {
			if got := wireHash(t, cards, tc.emit); got != tc.want[i] {
				t.Errorf("%s on %d cards: ISA blob SHA-256 %s, want %s", tc.name, cards, got, tc.want[i])
			}
		}
	}
}

// TestAblationVariantsWireStable pins the programs of the three rejected
// mapping variants (gatherRebroadcast, matVecAblation) on the shapes their
// ablation tests run: the hashes are those of the production options these
// test-side builders replace, so the ablation tests compare the same
// programs they always did.
func TestAblationVariantsWireStable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cards int
		emit  func(*Context)
		want  string
	}{
		{"gather", 8, func(c *Context) { gatherRebroadcast(c, 256, ConvBNUnit, 8, "ConvBN") }, "b9ce37f4a7318b848279e95d481481d5dde5f34f8815a56388eacbb57a65705e"},
		{"star", 16, func(c *Context) { matVecAblation(c, 2, 64, false, true, "DFT") }, "0145927d083ace82e114dab11e9e6a95047e9a384ba7b4257ce8f2f5f00d78e8"},
		{"distributed-bs", 8, func(c *Context) { matVecAblation(c, 8, 32, true, false, "DFT") }, "f4db69f0bde4e952a10a083f78bdf93ae82b59f09e543f3281390b1e175c7040"},
	} {
		emit := func(c *Context) error { tc.emit(c); return nil }
		if got := wireHash(t, tc.cards, emit); got != tc.want {
			t.Errorf("%s on %d cards: ISA blob SHA-256 %s, want %s", tc.name, tc.cards, got, tc.want)
		}
	}
}
