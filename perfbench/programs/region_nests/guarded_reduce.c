/* Integer reduction under an affine guard inside a region SCoP.
   usage: guarded_reduce SEED N STEPS   (N <= 256) */
#include <stdio.h>
#include <stdlib.h>

int g[256][256];
int h[256];
int res[1];

pure int weight(int v) {
  return v * v + 1;
}

void fold(int n, int cut) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    h[i] = g[i][0];
    for (int j = 0; j < n; j++) {
      if (j < i + cut) {
        total = total + weight(g[i][j]);
      }
    }
  }
  res[0] = total;
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  if (n > 256) return 2;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      g[i][j] = (i * 5 + j * 3 + seed) % 17;
  long checksum = 0;
  for (int s = 0; s < steps; s++) {
    fold(n, 8 + s % 5);
    checksum += (long)res[0];
  }
  for (int i = 0; i < n; i++) checksum += (long)h[i] * (i % 7);
  printf("checksum %ld\n", checksum);
  return 0;
}
